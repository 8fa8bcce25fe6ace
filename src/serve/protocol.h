#ifndef STIR_SERVE_PROTOCOL_H_
#define STIR_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "infer/home_inferrer.h"
#include "obs/json.h"
#include "serve/study_index.h"
#include "twitter/model.h"

namespace stir::serve {

/// Version tag every request and response carries ("v"). Requests with a
/// different version are rejected with `bad_version`, so the protocol can
/// evolve without silently misreading old clients.
inline constexpr int kProtocolVersion = 1;

/// Default / maximum page size for lookup_district posting lists.
inline constexpr int64_t kDefaultDistrictLimit = 100;
inline constexpr int64_t kMaxDistrictLimit = 10'000;

/// The request methods (DESIGN.md §10 has the schema):
///
///   {"v":1,"id":7,"method":"lookup_user","params":{"user":123}}
///   {"v":1,"id":8,"method":"lookup_district",
///    "params":{"state":"Seoul","county":"Mapo-gu","limit":10,"offset":0}}
///   {"v":1,"id":9,"method":"topk_summary"}
///   {"v":1,"id":10,"method":"server_stats"}
///   {"v":1,"id":11,"method":"index_info"}
///   {"v":1,"id":12,"method":"append_tweets","params":{
///    "users":[{"id":900,"location":"Seoul Mapo-gu","total_tweets":3}],
///    "tweets":[{"id":9000,"user":900,"time":50,
///               "lat":37.55,"lng":126.9,"text":"..."}]}}
///   {"v":1,"id":13,"method":"infer_user",
///    "params":{"user":123,"strategy":"diurnal"}}
///
/// Any request may carry an optional top-level "deadline_ms" (positive
/// integer): the client's latency budget from admission, enforced at
/// batch dispatch (see Request::deadline_ms).
///
/// One request per line (line-delimited JSON); responses echo the id:
///
///   {"v":1,"id":7,"ok":true,"result":{...}}
///   {"v":1,"id":7,"ok":false,"error":{"code":"not_found","message":"..."}}
///
/// append_tweets is served only by a streaming server (stir_serve
/// --stream); elsewhere it fails with `bad_request`. index_info is always
/// served and reports the live index generation (0 on a batch server).
/// infer_user (DESIGN.md §16) requires an inference index
/// (ServeOptions::infer_index); without one it fails with `bad_request`.
/// Its optional "strategy" param names a stir::infer strategy ("spatial"
/// | "diurnal" | "text"; absent means the server default), and a
/// prediction below the abstain threshold answers the typed
/// `low_confidence` envelope rather than a made-up district.
enum class Method : int {
  kLookupUser = 0,
  kLookupDistrict = 1,
  kTopkSummary = 2,
  kServerStats = 3,
  kAppendTweets = 4,
  kIndexInfo = 5,
  kInferUser = 6,
};
inline constexpr int kNumMethods = 7;
const char* MethodToString(Method method);

/// Admission shed tiers (DESIGN.md §13). Under overload the scheduler
/// rejects the *lowest-value* request class first instead of applying a
/// blanket cutoff: tier 3 (`append_tweets` — expensive, fences the whole
/// pipeline) sheds before tier 2 (the index lookups), which sheds before
/// tier 1 (`infer_user` — a point read that downstream personalization
/// depends on), and tier 0 (`server_stats` — the control plane an
/// operator uses to diagnose the overload) is never shed at all. Lower
/// tier number == higher value.
inline constexpr int kNumShedTiers = 4;
int ShedTier(Method method);

/// Per-array record cap for append_tweets (schema guard, not a resource
/// limit — the admission queue and max_request_bytes bound the rest).
inline constexpr int64_t kMaxAppendRecords = 10'000;

/// Error codes carried in `error.code`. The retry contract for clients
/// (documented in DESIGN.md §10): `overloaded`, `unavailable`,
/// `deadline_exceeded`, and `data_corrupt` are transient — retry with
/// common::RetryPolicy semantics (exponential backoff, bounded
/// attempts; for `data_corrupt`, against a replica or after the
/// operator restores the corpus); everything else is terminal for the
/// request as written.
enum class ErrorCode : int {
  kParseError = 0,     ///< Line is not valid JSON.
  kBadRequest = 1,     ///< Valid JSON, wrong shape (schema violation).
  kBadVersion = 2,     ///< "v" != kProtocolVersion.
  kUnknownMethod = 3,  ///< "method" names nothing served here.
  kOversized = 4,      ///< Line exceeds the size cap; not parsed.
  kNotFound = 5,       ///< User / district outside the index.
  kOverloaded = 6,     ///< Admission queue full — retryable.
  kShuttingDown = 7,   ///< Server draining; no new work accepted.
  kUnavailable = 8,    ///< Injected service fault — retryable.
  kInternal = 9,       ///< Handler invariant broke (never expected).
  kDeadlineExceeded = 10,  ///< Request's deadline expired — retryable.
  kDataCorrupt = 11,   ///< Backing data failed verification — retryable.
  kLowConfidence = 12,  ///< Inference abstained; not retryable as written.
};
const char* ErrorCodeToString(ErrorCode code);

/// A validated request, ready to execute.
struct Request {
  int64_t id = -1;
  Method method = Method::kTopkSummary;
  /// Client budget from the optional top-level "deadline_ms" key: the
  /// request is worthless to the sender this many milliseconds after
  /// admission, so the scheduler answers `deadline_exceeded` instead of
  /// executing it late. 0 (absent) defers to ServeOptions::
  /// default_deadline_ms; both 0 means no deadline.
  int64_t deadline_ms = 0;
  // lookup_user / infer_user
  twitter::UserId user = twitter::kInvalidUser;
  // infer_user: validated strategy name; empty means the server default.
  std::string strategy;
  // lookup_district
  std::string state;
  std::string county;
  int64_t limit = kDefaultDistrictLimit;
  int64_t offset = 0;
  // append_tweets (validated records, ready for the stream backend)
  std::vector<twitter::User> users;
  std::vector<twitter::Tweet> tweets;
};

/// Outcome of parsing one request line: a Request, or the error response
/// to send instead. When the malformed line still carried a usable id it
/// is echoed (`has_id`), otherwise the error response carries "id":null.
struct ParseOutcome {
  bool ok = false;
  Request request;
  ErrorCode code = ErrorCode::kParseError;
  std::string message;
  bool has_id = false;
  int64_t id = -1;
};

/// Strictly parses one line. Rejects: oversized lines (> `max_bytes`,
/// unparsed), invalid JSON, non-object roots, unknown or missing keys,
/// wrong value types, bad versions, unknown methods, and out-of-range
/// params. Deterministic: identical lines yield identical outcomes.
ParseOutcome ParseRequest(std::string_view line, size_t max_bytes);

/// Opens a response object and writes the envelope every response line
/// starts with: `{"v":1,"id":<id or null>,"ok":<ok>`.
void BeginResponse(obs::JsonWriter* w, int64_t id, bool has_id, bool ok);

/// Renders the error-response line (no trailing newline).
std::string ErrorResponse(bool has_id, int64_t id, ErrorCode code,
                          std::string_view message);

/// The `oversized` rejection for a line of `line_bytes` against a
/// `max_bytes` cap — one formatter shared by ParseRequest and the network
/// framer, so a line rejected while still split across socket reads is
/// byte-identical to the same line rejected whole over stdio.
std::string OversizedResponse(size_t line_bytes, size_t max_bytes);

/// Executes a lookup_user / lookup_district / topk_summary / index_info
/// request against the immutable index and renders the response line.
/// Pure: identical (index, request, generation, streaming) tuples yield
/// identical bytes, on any thread. server_stats and append_tweets are
/// answered by the scheduler (they touch scheduler-owned state) and must
/// not be passed here. `generation` and `streaming` feed index_info; a
/// batch server reports generation 0.
std::string ExecuteOnIndex(const StudyIndex& index, const Request& request,
                           int64_t generation, bool streaming);

/// Batch-server shim: generation 0, not streaming.
std::string ExecuteOnIndex(const StudyIndex& index, const Request& request);

/// How one infer_user request resolved, for the scheduler's `infer.*`
/// metrics.
enum class InferOutcome : int {
  kDecided = 0,    ///< Confident prediction returned.
  kAbstained = 1,  ///< `low_confidence` envelope.
  kNotFound = 2,   ///< User has no evidence in the index.
  kRejected = 3,   ///< Inference not enabled on this server.
};

/// Executes one infer_user request against the immutable evidence index
/// and renders the response line. Pure like ExecuteOnIndex: identical
/// (index, params, request) tuples yield identical bytes on any thread,
/// so responses are byte-identical across worker counts. A null `index`
/// (inference not enabled) answers `bad_request`; an unknown user
/// `not_found`; an abstention the typed `low_confidence` envelope with
/// the confidence it fell short at. `outcome` (optional) receives the
/// resolution for metrics.
std::string ExecuteInferUser(const infer::InferenceIndex* index,
                             const infer::InferParams& params,
                             const Request& request,
                             InferOutcome* outcome = nullptr);

}  // namespace stir::serve

#endif  // STIR_SERVE_PROTOCOL_H_
