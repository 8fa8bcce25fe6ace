#include "common/xml.h"

#include <gtest/gtest.h>

#include "common/string_util.h"

namespace stir {
namespace {

TEST(XmlTest, EscapeAndUnescapeThroughRoundTrip) {
  XmlNode node("t");
  node.set_text("a < b & c > \"d\" 'e'");
  std::string xml = node.ToString();
  EXPECT_NE(xml.find("&lt;"), std::string::npos);
  auto parsed = ParseXml(xml);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)->text(), "a < b & c > \"d\" 'e'");
}

TEST(XmlTest, BuildsYahooShapedResponse) {
  XmlNode root("ResultSet");
  root.AddAttribute("version", "1.0");
  XmlNode& result = root.AddChild("Result");
  XmlNode& location = result.AddChild("location");
  location.AddChild("country").set_text("South Korea");
  location.AddChild("state").set_text("Seoul");
  location.AddChild("county").set_text("Yangcheon-gu");
  location.AddChild("town").set_text("Mok 1-dong");

  std::string xml = root.ToString();
  auto parsed = ParseXml(xml);
  ASSERT_TRUE(parsed.ok());
  const XmlNode& p = **parsed;
  EXPECT_EQ(p.name(), "ResultSet");
  ASSERT_NE(p.FindAttribute("version"), nullptr);
  EXPECT_EQ(*p.FindAttribute("version"), "1.0");
  const XmlNode* loc = p.FindChild("Result")->FindChild("location");
  ASSERT_NE(loc, nullptr);
  EXPECT_EQ(loc->ChildText("state"), "Seoul");
  EXPECT_EQ(loc->ChildText("county"), "Yangcheon-gu");
  EXPECT_EQ(loc->ChildText("missing"), "");
}

TEST(XmlTest, SelfClosingTag) {
  auto parsed = ParseXml("<empty/>");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)->name(), "empty");
  EXPECT_TRUE((*parsed)->text().empty());
  EXPECT_TRUE((*parsed)->children().empty());
}

TEST(XmlTest, AttributesWithBothQuoteStyles) {
  auto parsed = ParseXml("<a x=\"1\" y='two'/>");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*(*parsed)->FindAttribute("x"), "1");
  EXPECT_EQ(*(*parsed)->FindAttribute("y"), "two");
  EXPECT_EQ((*parsed)->FindAttribute("z"), nullptr);
}

TEST(XmlTest, SkipsPrologAndComments) {
  auto parsed = ParseXml(
      "<?xml version=\"1.0\"?>\n<!-- header -->\n<r><!-- mid -->"
      "<c>v</c></r>");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)->ChildText("c"), "v");
}

TEST(XmlTest, MismatchedCloseTagFails) {
  EXPECT_FALSE(ParseXml("<a><b></a></b>").ok());
}

TEST(XmlTest, MissingCloseTagFails) {
  EXPECT_FALSE(ParseXml("<a><b></b>").ok());
}

TEST(XmlTest, TrailingContentFails) {
  EXPECT_FALSE(ParseXml("<a/><b/>").ok());
}

TEST(XmlTest, CompactModeSingleLine) {
  XmlNode root("r");
  root.AddChild("c").set_text("x");
  std::string compact = root.ToString(-1);
  EXPECT_EQ(compact.find('\n'), std::string::npos);
  EXPECT_TRUE(ParseXml(compact).ok());
}

TEST(XmlTest, DeepNestingRoundTrip) {
  XmlNode root("l0");
  XmlNode* current = &root;
  for (int i = 1; i < 20; ++i) {
    current = &current->AddChild(StrFormat("l%d", i));
  }
  current->set_text("bottom");
  auto parsed = ParseXml(root.ToString());
  ASSERT_TRUE(parsed.ok());
  const XmlNode* walker = parsed->get();
  for (int i = 1; i < 20; ++i) {
    walker = walker->FindChild(StrFormat("l%d", i));
    ASSERT_NE(walker, nullptr);
  }
  EXPECT_EQ(walker->text(), "bottom");
}

}  // namespace
}  // namespace stir
