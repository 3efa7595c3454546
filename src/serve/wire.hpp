// Newline-delimited text protocol for the socket server.
//
// One request per line, one response line per request, in order; a line
// holds at most kMaxLineBytes (serve/server.hpp). Kept as pure string <->
// struct functions so the protocol is unit-testable without sockets. Grammar (fields space-separated; [] optional):
//
//   dist  <p> <q> [min|exp] [deadline_ms]
//   knn   <p> <k> [min|exp] [deadline_ms]
//   range <p> <radius> [min|exp] [deadline_ms]
//   upsert <c0> <c1> ... (dynamic services only; one coordinate per dim)
//   remove <id>          (dynamic services only; stable id from upsert)
//   stats | metrics | info | quit | shutdown
//
// Responses:
//
//   ok dist <value>
//   ok knn <count> <point>:<distance> ...
//   ok range <count>
//   ok upsert id=<id> epoch=<e>
//   ok remove id=<id> epoch=<e>
//   ok info points=<n> trees=<t> epoch=<e> dim=<d>
//   ok stats qps=... p50_ms=... p99_ms=... depth=... rejected=...
//            completed=...
//   err <code> <message>
//
// Updates batched together publish one ensemble epoch; <e> is the version
// their batch published (0 = static service, which rejects updates).
//
// `metrics` is the one multi-line response: the full Prometheus text
// exposition of the service registry (docs/observability.md), terminated
// by a line reading "# EOF" so clients know where it ends. `quit` closes
// the connection without a reply.
#pragma once

#include <cstddef>
#include <string>

#include "common/status.hpp"
#include "serve/types.hpp"

namespace mpte::serve {

/// Non-query protocol lines the server handles itself.
enum class ControlCommand {
  kNone,      // not a control line — parse as a request
  kStats,     // reply with a stats line
  kMetrics,   // reply with the Prometheus exposition (multi-line, # EOF)
  kInfo,      // reply with ensemble shape
  kQuit,      // close this connection
  kShutdown,  // stop the whole server
};

ControlCommand parse_control(const std::string& line);

/// The largest deadline_ms a line may carry (one day); a larger one is
/// malformed, so a queued request's deadline never overflows the clock.
inline constexpr std::size_t kMaxDeadlineMs = 24 * 60 * 60 * 1000;

/// Parses a query line; kInvalidArgument on malformed input. Indexes,
/// counts, ids and deadlines are unsigned decimal integers.
Result<Request> parse_request(const std::string& line);

/// Formats one response line (no trailing newline). Errors become
/// "err <code> <message>".
std::string format_response(const Result<Response>& result);

std::string format_info(std::size_t points, std::size_t trees,
                        std::uint64_t epoch, std::size_t dim);
/// The one-line stats response. Values are read back from a registry
/// filled by export_service_stats (service.hpp), the same numbers the
/// `metrics` exposition reports.
std::string format_stats(const ServiceStats& stats);

/// True when the line is a success response.
bool is_ok_line(const std::string& line);

}  // namespace mpte::serve
