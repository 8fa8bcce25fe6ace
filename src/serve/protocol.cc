#include "serve/protocol.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "common/string_util.h"
#include "obs/json.h"

namespace stir::serve {

namespace {

using obs::JsonValue;
using obs::JsonWriter;

ParseOutcome Failure(ErrorCode code, std::string message, bool has_id = false,
                     int64_t id = -1) {
  ParseOutcome outcome;
  outcome.ok = false;
  outcome.code = code;
  outcome.message = std::move(message);
  outcome.has_id = has_id;
  outcome.id = id;
  return outcome;
}

std::string NotFoundResponse(int64_t id, std::string_view message) {
  return ErrorResponse(true, id, ErrorCode::kNotFound, message);
}

void WriteConcentration(JsonWriter* w,
                        const core::ConcentrationMetrics& metrics) {
  w->BeginObject();
  w->Key("entropy_bits");
  w->FixedDouble(metrics.entropy_bits, 6);
  w->Key("normalized_entropy");
  w->FixedDouble(metrics.normalized_entropy, 6);
  w->Key("gini");
  w->FixedDouble(metrics.gini, 6);
  w->Key("top_share");
  w->FixedDouble(metrics.top_share, 6);
  w->Key("matched_share");
  w->FixedDouble(metrics.matched_share, 6);
  w->EndObject();
}

std::string LookupUser(const StudyIndex& index, const Request& request) {
  const UserEntry* entry = index.FindUser(request.user);
  if (entry == nullptr) {
    return NotFoundResponse(
        request.id, StrFormat("user %lld is not in the final study sample",
                              static_cast<long long>(request.user)));
  }
  JsonWriter w;
  BeginResponse(&w, request.id, true, true);
  w.Key("result");
  w.BeginObject();
  w.Key("user");
  w.Int(entry->user);
  w.Key("group");
  w.String(core::TopKGroupToString(entry->group));
  w.Key("match_rank");
  w.Int(entry->match_rank);
  w.Key("profile_district");
  if (entry->profile_district != kInvalidName) {
    w.String(index.name(entry->profile_district));
  } else {
    w.Null();
  }
  w.Key("gps_tweets");
  w.Int(entry->gps_tweets);
  w.Key("matched_tweets");
  w.Int(entry->matched_tweets);
  w.Key("locations");
  w.BeginArray();
  for (const RankedLocation* location = index.LocationsBegin(*entry);
       location != index.LocationsEnd(*entry); ++location) {
    w.BeginObject();
    w.Key("district");
    w.String(index.name(location->district));
    w.Key("count");
    w.Int(location->count);
    w.Key("matched");
    w.Bool(location->matched);
    w.EndObject();
  }
  w.EndArray();
  w.Key("concentration");
  WriteConcentration(&w, entry->concentration);
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

std::string LookupDistrict(const StudyIndex& index, const Request& request) {
  const DistrictEntry* entry =
      index.FindDistrict(request.state, request.county);
  if (entry == nullptr) {
    return NotFoundResponse(
        request.id,
        StrFormat("district '%s %s' has no users in the index",
                  request.state.c_str(), request.county.c_str()));
  }
  JsonWriter w;
  BeginResponse(&w, request.id, true, true);
  w.Key("result");
  w.BeginObject();
  w.Key("district");
  w.String(index.name(entry->name));
  w.Key("users");
  w.Int(entry->num_users);
  w.Key("gps_tweets");
  w.Int(entry->gps_tweets);
  w.Key("profile_users");
  w.Int(entry->profile_users);
  w.Key("offset");
  w.Int(request.offset);
  const twitter::UserId* begin = index.PostingsBegin(*entry);
  const twitter::UserId* end = index.PostingsEnd(*entry);
  int64_t total = end - begin;
  int64_t first = std::min<int64_t>(request.offset, total);
  int64_t count = std::min<int64_t>(request.limit, total - first);
  w.Key("returned");
  w.Int(count);
  w.Key("user_ids");
  w.BeginArray();
  for (int64_t i = 0; i < count; ++i) {
    w.Int(begin[first + i]);
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

std::string TopkSummary(const StudyIndex& index, const Request& request) {
  JsonWriter w;
  BeginResponse(&w, request.id, true, true);
  w.Key("result");
  w.BeginObject();
  w.Key("final_users");
  w.Int(index.final_users());
  w.Key("overall_avg_locations");
  w.FixedDouble(index.overall_avg_locations(), 6);
  w.Key("groups");
  w.BeginArray();
  for (int g = 0; g < core::kNumTopKGroups; ++g) {
    const core::GroupStats& stats =
        index.group(static_cast<core::TopKGroup>(g));
    w.BeginObject();
    w.Key("group");
    w.String(core::TopKGroupToString(static_cast<core::TopKGroup>(g)));
    w.Key("users");
    w.Int(stats.users);
    w.Key("user_share");
    w.FixedDouble(stats.user_share, 6);
    w.Key("gps_tweets");
    w.Int(stats.gps_tweets);
    w.Key("tweet_share");
    w.FixedDouble(stats.tweet_share, 6);
    w.Key("avg_tweet_locations");
    w.FixedDouble(stats.avg_tweet_locations, 6);
    w.EndObject();
  }
  w.EndArray();
  // The funnel rides along so consumers can see the selection the sample
  // went through (Pavalanathan & Eisenstein's bias caveat): how many
  // crawled users the served "final" population actually represents.
  w.Key("funnel");
  w.BeginObject();
  w.Key("crawled_users");
  w.Int(index.funnel().crawled_users);
  w.Key("well_defined_users");
  w.Int(index.funnel().well_defined_users);
  w.Key("gps_tweets");
  w.Int(index.funnel().gps_tweets);
  w.Key("geocode_failures");
  w.Int(index.funnel().geocode_failures);
  w.Key("final_users");
  w.Int(index.funnel().final_users);
  w.EndObject();
  w.Key("districts");
  w.Int(static_cast<int64_t>(index.district_count()));
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

/// Strict member extraction helpers. Each returns false after filling
/// `*outcome` with the schema violation.

bool RequireInt(const JsonValue& value, const char* what, int64_t* out,
                ParseOutcome* outcome, bool has_id, int64_t id) {
  if (value.kind != JsonValue::Kind::kNumber || !value.is_int) {
    *outcome = Failure(ErrorCode::kBadRequest,
                       StrFormat("'%s' must be an integer", what), has_id, id);
    return false;
  }
  *out = value.integer;
  return true;
}

bool RequireString(const JsonValue& value, const char* what, std::string* out,
                   ParseOutcome* outcome, int64_t id) {
  if (value.kind != JsonValue::Kind::kString || value.string.empty()) {
    *outcome = Failure(ErrorCode::kBadRequest,
                       StrFormat("'%s' must be a non-empty string", what),
                       true, id);
    return false;
  }
  *out = value.string;
  return true;
}

/// Validates one append_tweets user record:
///   {"id":900,"handle":"h","location":"Seoul Mapo-gu","total_tweets":3}
/// Only "id" is required; unknown keys are rejected like everywhere else.
bool ParseAppendUser(const JsonValue& value, size_t position,
                     twitter::User* user, ParseOutcome* outcome, int64_t id) {
  if (!value.IsObject()) {
    *outcome = Failure(ErrorCode::kBadRequest,
                       StrFormat("users[%zu] must be an object", position),
                       true, id);
    return false;
  }
  for (const auto& [key, unused] : value.members) {
    if (key != "id" && key != "handle" && key != "location" &&
        key != "total_tweets") {
      *outcome = Failure(
          ErrorCode::kBadRequest,
          StrFormat("users[%zu]: unknown key '%s'", position, key.c_str()),
          true, id);
      return false;
    }
  }
  const JsonValue* user_id = value.Find("id");
  if (user_id == nullptr) {
    *outcome = Failure(ErrorCode::kBadRequest,
                       StrFormat("users[%zu]: missing 'id'", position), true,
                       id);
    return false;
  }
  int64_t parsed_id = -1;
  if (!RequireInt(*user_id, "users[].id", &parsed_id, outcome, true, id)) {
    return false;
  }
  if (parsed_id < 0) {
    *outcome = Failure(ErrorCode::kBadRequest,
                       StrFormat("users[%zu]: 'id' must be >= 0", position),
                       true, id);
    return false;
  }
  user->id = parsed_id;
  if (const JsonValue* handle = value.Find("handle"); handle != nullptr) {
    if (handle->kind != JsonValue::Kind::kString) {
      *outcome = Failure(
          ErrorCode::kBadRequest,
          StrFormat("users[%zu]: 'handle' must be a string", position), true,
          id);
      return false;
    }
    user->handle = handle->string;
  }
  if (const JsonValue* location = value.Find("location");
      location != nullptr) {
    if (location->kind != JsonValue::Kind::kString ||
        location->string.size() > twitter::kMaxProfileLocationLength) {
      *outcome = Failure(
          ErrorCode::kBadRequest,
          StrFormat("users[%zu]: 'location' must be a string of at most "
                    "%zu characters",
                    position, twitter::kMaxProfileLocationLength),
          true, id);
      return false;
    }
    user->profile_location = location->string;
  }
  if (const JsonValue* total = value.Find("total_tweets"); total != nullptr) {
    if (!RequireInt(*total, "users[].total_tweets", &user->total_tweets,
                    outcome, true, id)) {
      return false;
    }
    if (user->total_tweets < 0) {
      *outcome = Failure(
          ErrorCode::kBadRequest,
          StrFormat("users[%zu]: 'total_tweets' must be >= 0", position),
          true, id);
      return false;
    }
  }
  return true;
}

/// Validates one append_tweets tweet record:
///   {"id":9000,"user":900,"time":50,"lat":37.5,"lng":126.9,"text":"..."}
/// "id", "user" and "time" are required; "lat"/"lng" come as a pair.
bool ParseAppendTweet(const JsonValue& value, size_t position,
                      twitter::Tweet* tweet, ParseOutcome* outcome,
                      int64_t id) {
  if (!value.IsObject()) {
    *outcome = Failure(ErrorCode::kBadRequest,
                       StrFormat("tweets[%zu] must be an object", position),
                       true, id);
    return false;
  }
  for (const auto& [key, unused] : value.members) {
    if (key != "id" && key != "user" && key != "time" && key != "lat" &&
        key != "lng" && key != "text") {
      *outcome = Failure(
          ErrorCode::kBadRequest,
          StrFormat("tweets[%zu]: unknown key '%s'", position, key.c_str()),
          true, id);
      return false;
    }
  }
  const JsonValue* tweet_id = value.Find("id");
  const JsonValue* user = value.Find("user");
  const JsonValue* time = value.Find("time");
  if (tweet_id == nullptr || user == nullptr || time == nullptr) {
    *outcome = Failure(
        ErrorCode::kBadRequest,
        StrFormat("tweets[%zu]: 'id', 'user' and 'time' are required",
                  position),
        true, id);
    return false;
  }
  if (!RequireInt(*tweet_id, "tweets[].id", &tweet->id, outcome, true, id) ||
      !RequireInt(*user, "tweets[].user", &tweet->user, outcome, true, id) ||
      !RequireInt(*time, "tweets[].time", &tweet->time, outcome, true, id)) {
    return false;
  }
  if (tweet->id < 0 || tweet->user < 0) {
    *outcome = Failure(
        ErrorCode::kBadRequest,
        StrFormat("tweets[%zu]: 'id' and 'user' must be >= 0", position),
        true, id);
    return false;
  }
  const JsonValue* lat = value.Find("lat");
  const JsonValue* lng = value.Find("lng");
  if ((lat == nullptr) != (lng == nullptr)) {
    *outcome = Failure(
        ErrorCode::kBadRequest,
        StrFormat("tweets[%zu]: 'lat' and 'lng' come as a pair", position),
        true, id);
    return false;
  }
  if (lat != nullptr) {
    if (lat->kind != JsonValue::Kind::kNumber ||
        lng->kind != JsonValue::Kind::kNumber) {
      *outcome = Failure(
          ErrorCode::kBadRequest,
          StrFormat("tweets[%zu]: 'lat'/'lng' must be numbers", position),
          true, id);
      return false;
    }
    if (lat->number < -90.0 || lat->number > 90.0 || lng->number < -180.0 ||
        lng->number > 180.0) {
      *outcome = Failure(
          ErrorCode::kBadRequest,
          StrFormat("tweets[%zu]: 'lat'/'lng' out of range", position), true,
          id);
      return false;
    }
    tweet->gps = geo::LatLng{lat->number, lng->number};
  }
  if (const JsonValue* text = value.Find("text"); text != nullptr) {
    if (text->kind != JsonValue::Kind::kString) {
      *outcome = Failure(
          ErrorCode::kBadRequest,
          StrFormat("tweets[%zu]: 'text' must be a string", position), true,
          id);
      return false;
    }
    tweet->text = text->string;
  }
  return true;
}

std::string IndexInfo(const StudyIndex& index, const Request& request,
                      int64_t generation, bool streaming) {
  JsonWriter w;
  BeginResponse(&w, request.id, true, true);
  w.Key("result");
  w.BeginObject();
  w.Key("generation");
  w.Int(generation);
  w.Key("streaming");
  w.Bool(streaming);
  w.Key("users");
  w.Int(static_cast<int64_t>(index.user_count()));
  w.Key("districts");
  w.Int(static_cast<int64_t>(index.district_count()));
  w.Key("final_users");
  w.Int(index.final_users());
  w.Key("memory_bytes");
  w.Int(index.MemoryBytes());
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

}  // namespace

const char* MethodToString(Method method) {
  switch (method) {
    case Method::kLookupUser: return "lookup_user";
    case Method::kLookupDistrict: return "lookup_district";
    case Method::kTopkSummary: return "topk_summary";
    case Method::kServerStats: return "server_stats";
    case Method::kAppendTweets: return "append_tweets";
    case Method::kIndexInfo: return "index_info";
    case Method::kInferUser: return "infer_user";
  }
  return "unknown";
}

int ShedTier(Method method) {
  switch (method) {
    case Method::kServerStats:
      return 0;
    case Method::kInferUser:
      return 1;
    case Method::kLookupUser:
    case Method::kLookupDistrict:
    case Method::kTopkSummary:
    case Method::kIndexInfo:
      return 2;
    case Method::kAppendTweets:
      return 3;
  }
  return 2;
}

const char* ErrorCodeToString(ErrorCode code) {
  switch (code) {
    case ErrorCode::kParseError: return "parse_error";
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kBadVersion: return "bad_version";
    case ErrorCode::kUnknownMethod: return "unknown_method";
    case ErrorCode::kOversized: return "oversized";
    case ErrorCode::kNotFound: return "not_found";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kShuttingDown: return "shutting_down";
    case ErrorCode::kUnavailable: return "unavailable";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::kDataCorrupt: return "data_corrupt";
    case ErrorCode::kLowConfidence: return "low_confidence";
  }
  return "internal";
}

void BeginResponse(JsonWriter* w, int64_t id, bool has_id, bool ok) {
  w->BeginObject();
  w->Key("v");
  w->Int(kProtocolVersion);
  w->Key("id");
  if (has_id) {
    w->Int(id);
  } else {
    w->Null();
  }
  w->Key("ok");
  w->Bool(ok);
}

std::string ErrorResponse(bool has_id, int64_t id, ErrorCode code,
                          std::string_view message) {
  JsonWriter w;
  BeginResponse(&w, id, has_id, false);
  w.Key("error");
  w.BeginObject();
  w.Key("code");
  w.String(ErrorCodeToString(code));
  w.Key("message");
  w.String(message);
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

std::string OversizedResponse(size_t line_bytes, size_t max_bytes) {
  return ErrorResponse(
      false, -1, ErrorCode::kOversized,
      StrFormat("request of %zu bytes exceeds the %zu-byte cap", line_bytes,
                max_bytes));
}

ParseOutcome ParseRequest(std::string_view line, size_t max_bytes) {
  if (line.size() > max_bytes) {
    return Failure(ErrorCode::kOversized,
                   StrFormat("request of %zu bytes exceeds the %zu-byte cap",
                             line.size(), max_bytes));
  }
  JsonValue root;
  std::string parse_error;
  if (!obs::JsonParse(line, &root, &parse_error)) {
    return Failure(ErrorCode::kParseError, parse_error);
  }
  if (!root.IsObject()) {
    return Failure(ErrorCode::kBadRequest, "request must be a JSON object");
  }

  // Recover the id first so later failures can echo it.
  bool has_id = false;
  int64_t id = -1;
  const JsonValue* id_value = root.Find("id");
  if (id_value != nullptr && id_value->kind == JsonValue::Kind::kNumber &&
      id_value->is_int && id_value->integer >= 0) {
    has_id = true;
    id = id_value->integer;
  }

  for (const auto& [key, unused] : root.members) {
    if (key != "v" && key != "id" && key != "method" && key != "params" &&
        key != "deadline_ms") {
      return Failure(ErrorCode::kBadRequest,
                     StrFormat("unknown key '%s'", key.c_str()), has_id, id);
    }
  }

  const JsonValue* version = root.Find("v");
  if (version == nullptr) {
    return Failure(ErrorCode::kBadRequest, "missing 'v'", has_id, id);
  }
  if (version->kind != JsonValue::Kind::kNumber || !version->is_int) {
    return Failure(ErrorCode::kBadRequest, "'v' must be an integer", has_id,
                   id);
  }
  if (version->integer != kProtocolVersion) {
    return Failure(
        ErrorCode::kBadVersion,
        StrFormat("protocol version %lld is not served (this is version %d)",
                  static_cast<long long>(version->integer), kProtocolVersion),
        has_id, id);
  }

  if (id_value == nullptr) {
    return Failure(ErrorCode::kBadRequest, "missing 'id'");
  }
  if (!has_id) {
    return Failure(ErrorCode::kBadRequest,
                   "'id' must be a non-negative integer");
  }

  const JsonValue* method_value = root.Find("method");
  if (method_value == nullptr ||
      method_value->kind != JsonValue::Kind::kString) {
    return Failure(ErrorCode::kBadRequest, "'method' must be a string", true,
                   id);
  }

  ParseOutcome outcome;
  outcome.ok = true;
  outcome.has_id = true;
  outcome.id = id;
  Request& request = outcome.request;
  request.id = id;

  const std::string& method = method_value->string;
  if (method == "lookup_user") {
    request.method = Method::kLookupUser;
  } else if (method == "lookup_district") {
    request.method = Method::kLookupDistrict;
  } else if (method == "topk_summary") {
    request.method = Method::kTopkSummary;
  } else if (method == "server_stats") {
    request.method = Method::kServerStats;
  } else if (method == "append_tweets") {
    request.method = Method::kAppendTweets;
  } else if (method == "index_info") {
    request.method = Method::kIndexInfo;
  } else if (method == "infer_user") {
    request.method = Method::kInferUser;
  } else {
    return Failure(ErrorCode::kUnknownMethod,
                   StrFormat("method '%s' is not served", method.c_str()),
                   true, id);
  }

  const JsonValue* deadline = root.Find("deadline_ms");
  if (deadline != nullptr) {
    if (deadline->kind != JsonValue::Kind::kNumber || !deadline->is_int ||
        deadline->integer <= 0) {
      return Failure(ErrorCode::kBadRequest,
                     "'deadline_ms' must be a positive integer", true, id);
    }
    request.deadline_ms = deadline->integer;
  }

  const JsonValue* params = root.Find("params");
  if (params != nullptr && !params->IsObject()) {
    return Failure(ErrorCode::kBadRequest, "'params' must be an object", true,
                   id);
  }
  static const JsonValue kEmptyParams = [] {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    return v;
  }();
  const JsonValue& p = params != nullptr ? *params : kEmptyParams;

  switch (request.method) {
    case Method::kLookupUser:
    case Method::kInferUser: {
      const bool infer = request.method == Method::kInferUser;
      for (const auto& [key, unused] : p.members) {
        if (key != "user" && !(infer && key == "strategy")) {
          return Failure(ErrorCode::kBadRequest,
                         StrFormat("unknown param '%s'", key.c_str()), true,
                         id);
        }
      }
      const JsonValue* user = p.Find("user");
      if (user == nullptr) {
        return Failure(ErrorCode::kBadRequest, "missing param 'user'", true,
                       id);
      }
      int64_t user_id = -1;
      if (!RequireInt(*user, "user", &user_id, &outcome, true, id)) {
        return outcome;
      }
      if (user_id < 0) {
        return Failure(ErrorCode::kBadRequest, "'user' must be >= 0", true,
                       id);
      }
      request.user = user_id;
      if (const JsonValue* strategy = p.Find("strategy");
          strategy != nullptr) {
        if (!RequireString(*strategy, "strategy", &request.strategy, &outcome,
                           id)) {
          return outcome;
        }
        infer::Strategy unused_strategy;
        if (!infer::StrategyFromString(request.strategy, &unused_strategy)) {
          return Failure(
              ErrorCode::kBadRequest,
              StrFormat("unknown strategy '%s' (spatial | diurnal | text)",
                        request.strategy.c_str()),
              true, id);
        }
      }
      break;
    }
    case Method::kLookupDistrict: {
      for (const auto& [key, unused] : p.members) {
        if (key != "state" && key != "county" && key != "limit" &&
            key != "offset") {
          return Failure(ErrorCode::kBadRequest,
                         StrFormat("unknown param '%s'", key.c_str()), true,
                         id);
        }
      }
      const JsonValue* state = p.Find("state");
      const JsonValue* county = p.Find("county");
      if (state == nullptr || county == nullptr) {
        return Failure(ErrorCode::kBadRequest,
                       "params 'state' and 'county' are required", true, id);
      }
      if (!RequireString(*state, "state", &request.state, &outcome, id) ||
          !RequireString(*county, "county", &request.county, &outcome, id)) {
        return outcome;
      }
      if (const JsonValue* limit = p.Find("limit"); limit != nullptr) {
        if (!RequireInt(*limit, "limit", &request.limit, &outcome, true, id)) {
          return outcome;
        }
        if (request.limit < 0 || request.limit > kMaxDistrictLimit) {
          return Failure(
              ErrorCode::kBadRequest,
              StrFormat("'limit' must be in [0, %lld]",
                        static_cast<long long>(kMaxDistrictLimit)),
              true, id);
        }
      }
      if (const JsonValue* offset = p.Find("offset"); offset != nullptr) {
        if (!RequireInt(*offset, "offset", &request.offset, &outcome, true,
                        id)) {
          return outcome;
        }
        if (request.offset < 0) {
          return Failure(ErrorCode::kBadRequest, "'offset' must be >= 0",
                         true, id);
        }
      }
      break;
    }
    case Method::kTopkSummary:
    case Method::kServerStats:
    case Method::kIndexInfo: {
      if (!p.members.empty()) {
        return Failure(
            ErrorCode::kBadRequest,
            StrFormat("method '%s' takes no params", method.c_str()), true,
            id);
      }
      break;
    }
    case Method::kAppendTweets: {
      for (const auto& [key, unused] : p.members) {
        if (key != "users" && key != "tweets") {
          return Failure(ErrorCode::kBadRequest,
                         StrFormat("unknown param '%s'", key.c_str()), true,
                         id);
        }
      }
      for (const char* array_key : {"users", "tweets"}) {
        const JsonValue* array = p.Find(array_key);
        if (array == nullptr) continue;
        if (array->kind != JsonValue::Kind::kArray) {
          return Failure(ErrorCode::kBadRequest,
                         StrFormat("'%s' must be an array", array_key), true,
                         id);
        }
        if (static_cast<int64_t>(array->elements.size()) >
            kMaxAppendRecords) {
          return Failure(
              ErrorCode::kBadRequest,
              StrFormat("'%s' exceeds %lld records", array_key,
                        static_cast<long long>(kMaxAppendRecords)),
              true, id);
        }
      }
      if (const JsonValue* users = p.Find("users"); users != nullptr) {
        request.users.reserve(users->elements.size());
        for (size_t i = 0; i < users->elements.size(); ++i) {
          twitter::User user;
          if (!ParseAppendUser(users->elements[i], i, &user, &outcome, id)) {
            return outcome;
          }
          request.users.push_back(std::move(user));
        }
      }
      if (const JsonValue* tweets = p.Find("tweets"); tweets != nullptr) {
        request.tweets.reserve(tweets->elements.size());
        for (size_t i = 0; i < tweets->elements.size(); ++i) {
          twitter::Tweet tweet;
          if (!ParseAppendTweet(tweets->elements[i], i, &tweet, &outcome,
                                id)) {
            return outcome;
          }
          request.tweets.push_back(std::move(tweet));
        }
      }
      break;
    }
  }
  return outcome;
}

std::string ExecuteOnIndex(const StudyIndex& index, const Request& request,
                           int64_t generation, bool streaming) {
  switch (request.method) {
    case Method::kLookupUser: return LookupUser(index, request);
    case Method::kLookupDistrict: return LookupDistrict(index, request);
    case Method::kTopkSummary: return TopkSummary(index, request);
    case Method::kIndexInfo:
      return IndexInfo(index, request, generation, streaming);
    case Method::kServerStats:
    case Method::kAppendTweets:
    case Method::kInferUser:  // executes against the inference index
      break;
  }
  return ErrorResponse(
      true, request.id, ErrorCode::kInternal,
      StrFormat("method '%s' reached the index executor",
                MethodToString(request.method)));
}

std::string ExecuteOnIndex(const StudyIndex& index, const Request& request) {
  return ExecuteOnIndex(index, request, /*generation=*/0,
                        /*streaming=*/false);
}

std::string ExecuteInferUser(const infer::InferenceIndex* index,
                             const infer::InferParams& params,
                             const Request& request, InferOutcome* outcome) {
  InferOutcome resolved = InferOutcome::kRejected;
  std::string response;
  if (index == nullptr || index->db() == nullptr) {
    response = ErrorResponse(true, request.id, ErrorCode::kBadRequest,
                             "inference is not enabled on this server");
  } else {
    infer::Strategy strategy = params.default_strategy;
    if (!request.strategy.empty()) {
      // ParseRequest validated the name; re-check so a hand-built Request
      // cannot smuggle an unmapped strategy past the factory.
      if (!infer::StrategyFromString(request.strategy, &strategy)) {
        if (outcome != nullptr) *outcome = InferOutcome::kRejected;
        return ErrorResponse(
            true, request.id, ErrorCode::kBadRequest,
            StrFormat("unknown strategy '%s' (spatial | diurnal | text)",
                      request.strategy.c_str()));
      }
    }
    const std::optional<infer::UserEvidenceView> evidence =
        index->FindUser(request.user);
    if (!evidence) {
      resolved = InferOutcome::kNotFound;
      response = NotFoundResponse(
          request.id,
          StrFormat("user %lld has no evidence in the inference index",
                    static_cast<long long>(request.user)));
    } else {
      std::unique_ptr<infer::HomeInferrer> inferrer =
          infer::MakeInferrer(strategy, params);
      infer::Inference inference = inferrer->Infer(*evidence);
      if (!inference.decided) {
        resolved = InferOutcome::kAbstained;
        response = ErrorResponse(
            true, request.id, ErrorCode::kLowConfidence,
            StrFormat("%s abstained at confidence %.4f (threshold %.4f, "
                      "evidence %lld)",
                      inferrer->name(), inference.confidence,
                      params.abstain_threshold,
                      static_cast<long long>(inference.evidence)));
      } else {
        resolved = InferOutcome::kDecided;
        const geo::Region& district = index->db()->region(inference.district);
        JsonWriter w;
        BeginResponse(&w, request.id, true, true);
        w.Key("result");
        w.BeginObject();
        w.Key("user");
        w.Int(evidence->user);
        w.Key("strategy");
        w.String(inferrer->name());
        w.Key("state");
        w.String(district.state);
        w.Key("county");
        w.String(district.county);
        w.Key("confidence");
        w.FixedDouble(inference.confidence, 6);
        w.Key("evidence");
        w.Int(inference.evidence);
        w.Key("night_evidence");
        w.Int(inference.night_evidence);
        w.Key("gps_tweets");
        w.Int(evidence->gps_tweets);
        w.Key("text_votes");
        w.Int(evidence->text_votes);
        w.EndObject();
        w.EndObject();
        response = w.TakeString();
      }
    }
  }
  if (outcome != nullptr) *outcome = resolved;
  return response;
}

}  // namespace stir::serve
