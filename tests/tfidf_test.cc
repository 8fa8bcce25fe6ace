#include "text/tfidf.h"

#include <gtest/gtest.h>

namespace stir::text {
namespace {

TEST(TfIdfTest, EmptyCorpusFinalizes) {
  TfIdf index;
  index.Finalize();
  EXPECT_EQ(index.num_documents(), 0u);
  EXPECT_TRUE(index.TopTerms("nope", 3).status().IsNotFound());
}

TEST(TfIdfTest, TopTermsBeforeFinalizeFails) {
  TfIdf index;
  index.AddDocument("d", {"a"});
  EXPECT_TRUE(index.TopTerms("d", 1).status().IsFailedPrecondition());
}

TEST(TfIdfTest, DistinctiveTermOutranksCommonTerm) {
  TfIdf index;
  index.AddDocument("seoul",
                    {"coffee", "earthquake", "earthquake", "coffee",
                     "coffee"});
  index.AddDocument("busan", {"coffee", "beach", "coffee"});
  index.AddDocument("daegu", {"coffee", "lunch"});
  index.Finalize();
  auto terms = index.TopTerms("seoul", 3);
  ASSERT_TRUE(terms.ok());
  // "earthquake" (2x, unique to this cell) outranks "coffee" (3x but in
  // every document): 1.69 * 1.69 > 2.10 * 1.0 under log-tf/smoothed-idf.
  EXPECT_EQ((*terms)[0].term, "earthquake");
}

TEST(TfIdfTest, IdfOrdering) {
  TfIdf index;
  index.AddDocument("a", {"common", "rare"});
  index.AddDocument("b", {"common"});
  index.AddDocument("c", {"common"});
  index.Finalize();
  EXPECT_GT(index.Idf("rare"), index.Idf("common"));
  EXPECT_GT(index.Idf("unseen"), index.Idf("rare"));
}

TEST(TfIdfTest, RepeatedAddMergesDocument) {
  TfIdf index;
  index.AddDocument("d", {"x"});
  index.AddDocument("d", {"x", "y"});
  index.AddDocument("e", {"z"});
  index.Finalize();
  EXPECT_EQ(index.num_documents(), 2u);
  auto terms = index.TopTerms("d", 10);
  ASSERT_TRUE(terms.ok());
  ASSERT_EQ(terms->size(), 2u);
  // x counted twice in d.
  for (const TermScore& t : *terms) {
    if (t.term == "x") {
      EXPECT_EQ(t.count, 2);
    }
    if (t.term == "y") {
      EXPECT_EQ(t.count, 1);
    }
  }
}

TEST(TfIdfTest, TopKTruncatesAndTieBreaksLexicographically) {
  TfIdf index;
  index.AddDocument("d", {"b", "a", "c"});
  index.AddDocument("other", {"unrelated"});
  index.Finalize();
  auto terms = index.TopTerms("d", 2);
  ASSERT_TRUE(terms.ok());
  ASSERT_EQ(terms->size(), 2u);
  // Equal scores: lexicographic order.
  EXPECT_EQ((*terms)[0].term, "a");
  EXPECT_EQ((*terms)[1].term, "b");
}

TEST(TfIdfTest, ScoreTokensAdHoc) {
  TfIdf index;
  index.AddDocument("d1", {"quake", "city"});
  index.AddDocument("d2", {"city"});
  index.Finalize();
  auto scored = index.ScoreTokens({"quake", "quake", "city"}, 2);
  ASSERT_EQ(scored.size(), 2u);
  EXPECT_EQ(scored[0].term, "quake");
  EXPECT_EQ(scored[0].count, 2);
}

TEST(TfIdfTest, VocabularySize) {
  TfIdf index;
  index.AddDocument("d1", {"a", "b", "a"});
  index.AddDocument("d2", {"b", "c"});
  index.Finalize();
  EXPECT_EQ(index.vocabulary_size(), 3u);
}

}  // namespace
}  // namespace stir::text
