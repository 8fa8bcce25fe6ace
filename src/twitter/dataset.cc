#include "twitter/dataset.h"

#include <charconv>

#include "common/csv.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace stir::twitter {

namespace {

/// The shortest text that strtod parses back to exactly `value`.
std::string RoundTripText(double value) {
  char buf[32];
  const std::to_chars_result written =
      std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, written.ptr);
}

}  // namespace

void Dataset::AddUser(User user) {
  STIR_CHECK(user_index_.find(user.id) == user_index_.end())
      << "duplicate user id " << user.id;
  user_index_[user.id] = users_.size();
  users_.push_back(std::move(user));
}

void Dataset::AddTweet(Tweet tweet) {
  STIR_CHECK(user_index_.find(tweet.user) != user_index_.end())
      << "tweet from unknown user " << tweet.user;
  if (tweet.gps.has_value()) ++gps_tweet_count_;
  tweets_by_user_[tweet.user].push_back(tweets_.size());
  tweets_.push_back(std::move(tweet));
}

const User* Dataset::FindUser(UserId id) const {
  auto it = user_index_.find(id);
  return it == user_index_.end() ? nullptr : &users_[it->second];
}

const std::vector<size_t>& Dataset::TweetIndicesOf(UserId id) const {
  static const std::vector<size_t>& empty = *new std::vector<size_t>();
  auto it = tweets_by_user_.find(id);
  return it == tweets_by_user_.end() ? empty : it->second;
}

int64_t Dataset::total_tweet_count() const {
  int64_t total = 0;
  for (const User& user : users_) total += user.total_tweets;
  return total;
}

Status Dataset::SaveTsv(const std::string& users_path,
                        const std::string& tweets_path) const {
  CsvOptions tsv;
  tsv.delimiter = '\t';
  std::vector<std::vector<std::string>> user_rows;
  user_rows.reserve(users_.size() + 1);
  user_rows.push_back({"id", "handle", "profile_location", "total_tweets"});
  for (const User& user : users_) {
    user_rows.push_back({StrFormat("%lld", static_cast<long long>(user.id)),
                         user.handle, user.profile_location,
                         StrFormat("%lld",
                                   static_cast<long long>(user.total_tweets))});
  }
  STIR_RETURN_IF_ERROR(WriteCsvFile(users_path, user_rows, tsv));

  std::vector<std::vector<std::string>> tweet_rows;
  tweet_rows.reserve(tweets_.size() + 1);
  tweet_rows.push_back({"id", "user", "time", "lat", "lng", "text"});
  for (const Tweet& tweet : tweets_) {
    std::string lat, lng;
    if (tweet.gps.has_value()) {
      lat = RoundTripText(tweet.gps->lat);
      lng = RoundTripText(tweet.gps->lng);
    }
    tweet_rows.push_back({StrFormat("%lld", static_cast<long long>(tweet.id)),
                          StrFormat("%lld", static_cast<long long>(tweet.user)),
                          StrFormat("%lld", static_cast<long long>(tweet.time)),
                          lat, lng, tweet.text});
  }
  return WriteCsvFile(tweets_path, tweet_rows, tsv);
}

StatusOr<Dataset> Dataset::LoadTsv(const std::string& users_path,
                                   const std::string& tweets_path) {
  return LoadTsv(users_path, tweets_path, TsvLoadOptions{});
}

StatusOr<Dataset> Dataset::LoadUsersTsv(const std::string& users_path,
                                        const TsvLoadOptions& options,
                                        TsvLoadStats* stats) {
  CsvOptions tsv;
  tsv.delimiter = '\t';
  Dataset dataset;
  TsvLoadStats local_stats;
  TsvLoadStats& counts = stats != nullptr ? *stats : local_stats;
  counts = TsvLoadStats{};

  STIR_ASSIGN_OR_RETURN(auto user_rows, ReadCsvFile(users_path, tsv));
  for (size_t i = 1; i < user_rows.size(); ++i) {  // skip header
    const auto& row = user_rows[i];
    Status bad;
    User user;
    if (row.size() != 4) {
      bad = Status::InvalidArgument(
          StrFormat("users row %zu: expected 4 fields, got %zu", i,
                    row.size()));
    } else {
      auto id = ParseInt64(row[0]);
      auto total = ParseInt64(row[3]);
      if (!id || !total) {
        bad = Status::InvalidArgument(StrFormat("users row %zu: bad ints", i));
      } else {
        user.id = *id;
        user.handle = row[1];
        user.profile_location = row[2];
        user.total_tweets = *total;
        // Lenient mode pre-checks duplicates so they quarantine instead
        // of tripping AddUser's fatal check (which strict mode keeps).
        if (!options.strict && dataset.FindUser(*id) != nullptr) {
          bad = Status::InvalidArgument(
              StrFormat("users row %zu: duplicate user id", i));
        }
      }
    }
    if (!bad.ok()) {
      if (options.strict) return bad;
      ++counts.quarantined_user_rows;
      continue;
    }
    dataset.AddUser(std::move(user));
  }
  return dataset;
}

StatusOr<Dataset> Dataset::LoadTsv(const std::string& users_path,
                                   const std::string& tweets_path,
                                   const TsvLoadOptions& options,
                                   TsvLoadStats* stats) {
  CsvOptions tsv;
  tsv.delimiter = '\t';
  TsvLoadStats local_stats;
  TsvLoadStats& counts = stats != nullptr ? *stats : local_stats;
  STIR_ASSIGN_OR_RETURN(Dataset dataset,
                        LoadUsersTsv(users_path, options, &counts));

  STIR_ASSIGN_OR_RETURN(auto tweet_rows, ReadCsvFile(tweets_path, tsv));
  for (size_t i = 1; i < tweet_rows.size(); ++i) {
    const auto& row = tweet_rows[i];
    Status bad;
    Tweet tweet;
    if (row.size() != 6) {
      bad = Status::InvalidArgument(
          StrFormat("tweets row %zu: expected 6 fields, got %zu", i,
                    row.size()));
    } else {
      auto id = ParseInt64(row[0]);
      auto user = ParseInt64(row[1]);
      auto time = ParseInt64(row[2]);
      if (!id || !user || !time) {
        bad =
            Status::InvalidArgument(StrFormat("tweets row %zu: bad ints", i));
      } else {
        tweet.id = *id;
        tweet.user = *user;
        tweet.time = *time;
        if (!row[3].empty() || !row[4].empty()) {
          auto lat = ParseDouble(row[3]);
          auto lng = ParseDouble(row[4]);
          if (!lat || !lng) {
            bad = Status::InvalidArgument(
                StrFormat("tweets row %zu: bad coordinates", i));
          } else {
            tweet.gps = geo::LatLng{*lat, *lng};
          }
        }
        tweet.text = row[5];
        if (bad.ok() && dataset.FindUser(tweet.user) == nullptr) {
          bad = Status::InvalidArgument(
              StrFormat("tweets row %zu: unknown user", i));
        }
      }
    }
    if (!bad.ok()) {
      if (options.strict) return bad;
      ++counts.quarantined_tweet_rows;
      continue;
    }
    dataset.AddTweet(std::move(tweet));
  }
  return dataset;
}

}  // namespace stir::twitter
