#ifndef STIR_PERFBENCH_CLIENT_H_
#define STIR_PERFBENCH_CLIENT_H_

// Open-loop load generator for the line protocol over loopback TCP: one
// thread, one epoll loop, a fixed set of connections. Every request has a
// due time; the client sends it when due whether or not earlier requests
// have been answered, and latency is measured from the due time, so a
// stall in the server is charged to every request it delays.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace stir::perfbench {

/// One scheduled request. The line itself is rendered when it is sent
/// (see RenderFn), so a long schedule stays small in memory.
struct Shot {
  int64_t due_ns = 0;  ///< Offset from the start of the run.
  int conn = 0;        ///< Connection index in [0, conns).
  uint32_t request = 0;  ///< Which request body (caller-defined).
  int64_t id = 0;        ///< Protocol id, unique within the run.
};

/// What happened to one shot. Times are nanosecond offsets from the run
/// start; -1 means it never happened.
struct ShotTiming {
  /// When the client's loop took it up (>= due). The bytes may leave
  /// later if the server is not reading: that wait is the server's.
  int64_t sent_ns = -1;
  int64_t done_ns = -1;  ///< When its response line arrived.
};

struct LoadResult {
  std::vector<ShotTiming> timings;  ///< Parallel to the shots.
  int64_t responses = 0;
  bool connect_failed = false;
};

/// Appends the request line of `shot` (without newline) to `out`.
using RenderFn = std::function<void(const Shot& shot, std::string* out)>;
/// Called once per response line with the index of the shot it answers.
using ResponseFn = std::function<void(size_t shot, std::string_view line)>;

/// Runs `shots` (sorted by due time) against 127.0.0.1:`port` over
/// `conns` connections. Responses on a connection come back in request
/// order. Returns after every shot is answered, or `drain_timeout_ns`
/// after the last due time.
LoadResult RunOpenLoop(uint16_t port, int conns, const std::vector<Shot>& shots,
                       const RenderFn& render, const ResponseFn& on_response,
                       int64_t drain_timeout_ns);

}  // namespace stir::perfbench

#endif  // STIR_PERFBENCH_CLIENT_H_
