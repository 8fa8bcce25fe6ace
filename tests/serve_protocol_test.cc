// Protocol layer: the strict line-delimited JSON parser and the pure
// request executors. Includes the fuzz-style table test over the
// malformed / truncated / oversized request corpus in
// tests/data/serve_requests/ — every line of a bad_* file must be
// rejected with a well-formed JSON error response, every line of a
// good_* file must parse.

#include "serve/protocol.h"

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/study.h"
#include "geo/admin_db.h"
#include "gtest/gtest.h"
#include "infer/home_inferrer.h"
#include "infer/inference_index.h"
#include "obs/json.h"
#include "serve/study_index.h"
#include "twitter/generator.h"

namespace stir::serve {
namespace {

using geo::AdminDb;
using obs::JsonIsValid;
using obs::JsonParse;
using obs::JsonValue;

constexpr size_t kMaxBytes = 64 * 1024;

class ServeProtocolTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const AdminDb& db = AdminDb::KoreanDistricts();
    twitter::DatasetGenerator generator(
        &db, twitter::DatasetGenerator::KoreanConfig(0.05));
    twitter::GeneratedData data = generator.Generate();
    core::CorrelationStudy study(&db);
    core::StudyResult result = study.Run(data.dataset);
    index_ = new StudyIndex(StudyIndex::Build(result, db));
    infer_index_ = new infer::InferenceIndex(
        infer::InferenceIndex::Build(data.dataset, db));
  }
  static void TearDownTestSuite() {
    delete index_;
    index_ = nullptr;
    delete infer_index_;
    infer_index_ = nullptr;
  }

  static StudyIndex* index_;
  static infer::InferenceIndex* infer_index_;
};

StudyIndex* ServeProtocolTest::index_ = nullptr;
infer::InferenceIndex* ServeProtocolTest::infer_index_ = nullptr;

std::vector<std::string> ReadLines(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

ErrorCode ParsedErrorCode(const std::string& response) {
  JsonValue root;
  EXPECT_TRUE(JsonParse(response, &root)) << response;
  const JsonValue* error = root.Find("error");
  EXPECT_NE(error, nullptr) << response;
  const JsonValue* code = error->Find("code");
  EXPECT_NE(code, nullptr) << response;
  for (int c = 0; c <= static_cast<int>(ErrorCode::kLowConfidence); ++c) {
    if (code->string == ErrorCodeToString(static_cast<ErrorCode>(c))) {
      return static_cast<ErrorCode>(c);
    }
  }
  ADD_FAILURE() << "unknown error code in " << response;
  return ErrorCode::kInternal;
}

// ---------------------------------------------------------------------------
// Corpus table test

TEST_F(ServeProtocolTest, RequestCorpus) {
  std::filesystem::path dir =
      std::filesystem::path(STIR_TEST_DATA_DIR) / "serve_requests";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string stem = entry.path().filename().string();
    const bool expect_good = stem.rfind("good_", 0) == 0;
    const bool expect_bad = stem.rfind("bad_", 0) == 0;
    ASSERT_TRUE(expect_good || expect_bad)
        << "corpus files must be named good_* or bad_*: " << stem;
    ++files;
    int line_number = 0;
    for (const std::string& line : ReadLines(entry.path())) {
      ++line_number;
      ParseOutcome outcome = ParseRequest(line, kMaxBytes);
      if (expect_good) {
        EXPECT_TRUE(outcome.ok)
            << stem << ":" << line_number << ": " << line << " -> "
            << outcome.message;
        // Executing a parsed request never crashes and always renders
        // valid JSON, whatever the index holds. server_stats and
        // append_tweets are scheduler-answered, not index-answered;
        // infer_user routes to the inference executor.
        if (outcome.ok && outcome.request.method != Method::kServerStats &&
            outcome.request.method != Method::kAppendTweets) {
          std::string response =
              outcome.request.method == Method::kInferUser
                  ? ExecuteInferUser(infer_index_, infer::InferParams{},
                                     outcome.request)
                  : ExecuteOnIndex(*index_, outcome.request);
          EXPECT_TRUE(JsonIsValid(response))
              << stem << ":" << line_number << ": " << response;
        }
      } else {
        EXPECT_FALSE(outcome.ok) << stem << ":" << line_number << ": " << line;
        std::string response = ErrorResponse(outcome.has_id, outcome.id,
                                             outcome.code, outcome.message);
        EXPECT_TRUE(JsonIsValid(response))
            << stem << ":" << line_number << ": " << response;
        // The envelope must echo the request id when one was recoverable.
        JsonValue root;
        ASSERT_TRUE(JsonParse(response, &root));
        const JsonValue* id = root.Find("id");
        ASSERT_NE(id, nullptr);
        if (outcome.has_id) {
          EXPECT_EQ(id->integer, outcome.id);
        } else {
          EXPECT_EQ(id->kind, JsonValue::Kind::kNull);
        }
      }
    }
  }
  EXPECT_GE(files, 8) << "corpus directory lost files";
}

// ---------------------------------------------------------------------------
// Parser specifics

TEST_F(ServeProtocolTest, OversizedLineRejectedUnparsed) {
  std::string line = "{\"v\":1,\"id\":3,\"method\":\"topk_summary\"";
  line.append(kMaxBytes, ' ');
  line += "}";
  ParseOutcome outcome = ParseRequest(line, kMaxBytes);
  ASSERT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.code, ErrorCode::kOversized);
  // Too large to parse — the id is NOT echoed even though it's there.
  EXPECT_FALSE(outcome.has_id);
  EXPECT_TRUE(
      JsonIsValid(ErrorResponse(false, -1, outcome.code, outcome.message)));
}

TEST_F(ServeProtocolTest, ErrorCodesAreSpecific) {
  auto code_of = [](std::string_view line) {
    return ParseRequest(line, kMaxBytes).code;
  };
  EXPECT_EQ(code_of("{"), ErrorCode::kParseError);
  EXPECT_EQ(code_of("[]"), ErrorCode::kBadRequest);
  EXPECT_EQ(code_of("{\"v\":9,\"id\":1,\"method\":\"topk_summary\"}"),
            ErrorCode::kBadVersion);
  EXPECT_EQ(code_of("{\"v\":1,\"id\":1,\"method\":\"nope\"}"),
            ErrorCode::kUnknownMethod);
  EXPECT_EQ(code_of("{\"v\":1,\"id\":1,\"method\":\"lookup_user\"}"),
            ErrorCode::kBadRequest);
}

TEST_F(ServeProtocolTest, MalformedRequestEchoesUsableId) {
  ParseOutcome outcome =
      ParseRequest("{\"v\":1,\"id\":77,\"method\":\"nope\"}", kMaxBytes);
  ASSERT_FALSE(outcome.ok);
  EXPECT_TRUE(outcome.has_id);
  EXPECT_EQ(outcome.id, 77);
}

TEST_F(ServeProtocolTest, DefaultsApplied) {
  ParseOutcome outcome = ParseRequest(
      "{\"v\":1,\"id\":1,\"method\":\"lookup_district\","
      "\"params\":{\"state\":\"Seoul\",\"county\":\"Mapo-gu\"}}",
      kMaxBytes);
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.request.limit, kDefaultDistrictLimit);
  EXPECT_EQ(outcome.request.offset, 0);
}

// ---------------------------------------------------------------------------
// Executors

TEST_F(ServeProtocolTest, ExecuteIsDeterministic) {
  Request request;
  request.id = 5;
  request.method = Method::kLookupUser;
  request.user = index_->users().front().user;
  std::string first = ExecuteOnIndex(*index_, request);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(ExecuteOnIndex(*index_, request), first);
  }
  EXPECT_TRUE(JsonIsValid(first));
}

TEST_F(ServeProtocolTest, LookupUserRoundTrip) {
  const UserEntry& entry = index_->users().front();
  Request request;
  request.id = 9;
  request.method = Method::kLookupUser;
  request.user = entry.user;
  JsonValue root;
  ASSERT_TRUE(JsonParse(ExecuteOnIndex(*index_, request), &root));
  EXPECT_EQ(root.Find("id")->integer, 9);
  EXPECT_TRUE(root.Find("ok")->boolean);
  const JsonValue* result = root.Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->Find("user")->integer, entry.user);
  EXPECT_EQ(result->Find("gps_tweets")->integer, entry.gps_tweets);
  EXPECT_EQ(result->Find("locations")->elements.size(),
            entry.num_locations);
  ASSERT_NE(result->Find("concentration"), nullptr);
}

TEST_F(ServeProtocolTest, LookupUserNotFound) {
  Request request;
  request.id = 4;
  request.method = Method::kLookupUser;
  request.user = 999'999'999;
  std::string response = ExecuteOnIndex(*index_, request);
  EXPECT_EQ(ParsedErrorCode(response), ErrorCode::kNotFound);
}

TEST_F(ServeProtocolTest, LookupDistrictPaging) {
  // Pick the busiest district so paging has something to page.
  const DistrictEntry* busiest = nullptr;
  for (const DistrictEntry& district : index_->districts()) {
    if (busiest == nullptr || district.num_users > busiest->num_users) {
      busiest = &district;
    }
  }
  ASSERT_NE(busiest, nullptr);
  const std::string& name = index_->name(busiest->name);
  size_t space = name.find(' ');
  ASSERT_NE(space, std::string::npos);
  Request request;
  request.id = 1;
  request.method = Method::kLookupDistrict;
  request.state = name.substr(0, space);
  request.county = name.substr(space + 1);
  request.limit = 1;

  std::vector<int64_t> paged;
  for (int64_t offset = 0; offset < busiest->num_users; ++offset) {
    request.offset = offset;
    JsonValue root;
    ASSERT_TRUE(JsonParse(ExecuteOnIndex(*index_, request), &root));
    const JsonValue* result = root.Find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->Find("returned")->integer, 1);
    ASSERT_EQ(result->Find("user_ids")->elements.size(), 1u);
    paged.push_back(result->Find("user_ids")->elements[0].integer);
  }
  // Page-of-one traversal reproduces the full ascending posting list.
  const twitter::UserId* begin = index_->PostingsBegin(*busiest);
  ASSERT_EQ(paged.size(), static_cast<size_t>(busiest->num_users));
  for (size_t i = 0; i < paged.size(); ++i) {
    EXPECT_EQ(paged[i], begin[i]);
  }
  // Offset past the end is empty, not an error.
  request.offset = busiest->num_users + 10;
  JsonValue root;
  ASSERT_TRUE(JsonParse(ExecuteOnIndex(*index_, request), &root));
  EXPECT_EQ(root.Find("result")->Find("returned")->integer, 0);
}

// ---------------------------------------------------------------------------
// infer_user executor

/// The first user (ascending id) whose diurnal inference lands on the
/// given side of the abstention threshold, or kInvalidUser.
twitter::UserId FindUserByDecision(const infer::InferenceIndex& index,
                                   bool want_decided) {
  std::unique_ptr<infer::HomeInferrer> inferrer =
      infer::MakeInferrer(infer::Strategy::kDiurnal, infer::InferParams{});
  for (const infer::UserEvidenceView& evidence : index.users()) {
    if (inferrer->Infer(evidence).decided == want_decided) {
      return evidence.user;
    }
  }
  return twitter::kInvalidUser;
}

TEST_F(ServeProtocolTest, InferUserRoundTrip) {
  const twitter::UserId user = FindUserByDecision(*infer_index_, true);
  ASSERT_NE(user, twitter::kInvalidUser);
  Request request;
  request.id = 21;
  request.method = Method::kInferUser;
  request.user = user;
  InferOutcome outcome = InferOutcome::kRejected;
  std::string response =
      ExecuteInferUser(infer_index_, infer::InferParams{}, request, &outcome);
  EXPECT_EQ(outcome, InferOutcome::kDecided);
  JsonValue root;
  ASSERT_TRUE(JsonParse(response, &root));
  EXPECT_EQ(root.Find("id")->integer, 21);
  EXPECT_TRUE(root.Find("ok")->boolean);
  const JsonValue* result = root.Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->Find("user")->integer, user);
  EXPECT_EQ(result->Find("strategy")->string, "diurnal");
  EXPECT_FALSE(result->Find("state")->string.empty());
  EXPECT_FALSE(result->Find("county")->string.empty());
  EXPECT_GT(result->Find("evidence")->integer, 0);
  // Responses are pure functions of (index, params, request).
  EXPECT_EQ(ExecuteInferUser(infer_index_, infer::InferParams{}, request),
            response);
}

TEST_F(ServeProtocolTest, InferUserAbstainsWithTypedEnvelope) {
  const twitter::UserId user = FindUserByDecision(*infer_index_, false);
  ASSERT_NE(user, twitter::kInvalidUser);
  Request request;
  request.id = 22;
  request.method = Method::kInferUser;
  request.user = user;
  InferOutcome outcome = InferOutcome::kRejected;
  std::string response =
      ExecuteInferUser(infer_index_, infer::InferParams{}, request, &outcome);
  EXPECT_EQ(outcome, InferOutcome::kAbstained);
  EXPECT_EQ(ParsedErrorCode(response), ErrorCode::kLowConfidence);
}

TEST_F(ServeProtocolTest, InferUserStrategySelection) {
  const twitter::UserId user = FindUserByDecision(*infer_index_, true);
  ASSERT_NE(user, twitter::kInvalidUser);
  Request request;
  request.id = 23;
  request.method = Method::kInferUser;
  request.user = user;
  request.strategy = "spatial";
  std::string response =
      ExecuteInferUser(infer_index_, infer::InferParams{}, request);
  JsonValue root;
  ASSERT_TRUE(JsonParse(response, &root));
  const JsonValue* result = root.Find("result");
  if (result != nullptr) {
    EXPECT_EQ(result->Find("strategy")->string, "spatial");
  } else {
    // Spatial may abstain where diurnal decides; that is still the
    // typed envelope, not a failure.
    EXPECT_EQ(ParsedErrorCode(response), ErrorCode::kLowConfidence);
  }
}

TEST_F(ServeProtocolTest, InferUserNotFound) {
  Request request;
  request.id = 24;
  request.method = Method::kInferUser;
  request.user = 999'999'999;
  InferOutcome outcome = InferOutcome::kRejected;
  std::string response =
      ExecuteInferUser(infer_index_, infer::InferParams{}, request, &outcome);
  EXPECT_EQ(outcome, InferOutcome::kNotFound);
  EXPECT_EQ(ParsedErrorCode(response), ErrorCode::kNotFound);
}

TEST_F(ServeProtocolTest, InferUserRejectedWhenDisabled) {
  Request request;
  request.id = 25;
  request.method = Method::kInferUser;
  request.user = 1;
  InferOutcome outcome = InferOutcome::kDecided;
  std::string response =
      ExecuteInferUser(nullptr, infer::InferParams{}, request, &outcome);
  EXPECT_EQ(outcome, InferOutcome::kRejected);
  EXPECT_EQ(ParsedErrorCode(response), ErrorCode::kBadRequest);
}

TEST_F(ServeProtocolTest, InferUserShedTierSitsBetweenStatsAndLookups) {
  EXPECT_LT(ShedTier(Method::kServerStats), ShedTier(Method::kInferUser));
  EXPECT_LT(ShedTier(Method::kInferUser), ShedTier(Method::kLookupUser));
  EXPECT_LT(ShedTier(Method::kLookupUser), ShedTier(Method::kAppendTweets));
  EXPECT_EQ(ShedTier(Method::kAppendTweets), kNumShedTiers - 1);
}

TEST_F(ServeProtocolTest, AllErrorCodesRenderValidJson) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kLowConfidence); ++c) {
    ErrorCode code = static_cast<ErrorCode>(c);
    EXPECT_TRUE(JsonIsValid(ErrorResponse(true, 1, code, "boom")));
    EXPECT_TRUE(JsonIsValid(ErrorResponse(false, -1, code, "\"quoted\"")));
  }
}

}  // namespace
}  // namespace stir::serve
