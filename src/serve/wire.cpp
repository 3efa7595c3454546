#include "serve/wire.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/service.hpp"

namespace mpte::serve {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(std::move(token));
  return tokens;
}

Status malformed(const std::string& why) {
  return Status(StatusCode::kInvalidArgument, "malformed request: " + why);
}

bool parse_size(const std::string& token, std::size_t* out) {
  // strtoull would accept a sign and wrap "-1" to 2^64 - 1.
  if (token.empty() || token[0] < '0' || token[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0' || errno == ERANGE) return false;
  *out = static_cast<std::size_t>(value);
  return true;
}

bool parse_double(const std::string& token, double* out) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0' || errno == ERANGE) return false;
  *out = value;
  return true;
}

/// Parses the optional trailing "[min|exp] [deadline_ms]" suffix starting
/// at tokens[from].
Status parse_suffix(const std::vector<std::string>& tokens, std::size_t from,
                    Request* request) {
  std::size_t at = from;
  if (at < tokens.size() &&
      (tokens[at] == "min" || tokens[at] == "exp")) {
    request->combiner =
        tokens[at] == "min" ? Combiner::kMin : Combiner::kExpected;
    ++at;
  }
  if (at < tokens.size()) {
    std::size_t deadline_ms = 0;
    if (!parse_size(tokens[at], &deadline_ms) ||
        deadline_ms > kMaxDeadlineMs) {
      return malformed("bad deadline '" + tokens[at] + "'");
    }
    request->deadline = std::chrono::milliseconds(deadline_ms);
    ++at;
  }
  if (at != tokens.size()) {
    return malformed("trailing tokens after '" + tokens[at - 1] + "'");
  }
  return Status::Ok();
}

std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

ControlCommand parse_control(const std::string& line) {
  const auto tokens = tokenize(line);
  if (tokens.size() != 1) return ControlCommand::kNone;
  if (tokens[0] == "stats") return ControlCommand::kStats;
  if (tokens[0] == "metrics") return ControlCommand::kMetrics;
  if (tokens[0] == "info") return ControlCommand::kInfo;
  if (tokens[0] == "quit") return ControlCommand::kQuit;
  if (tokens[0] == "shutdown") return ControlCommand::kShutdown;
  return ControlCommand::kNone;
}

Result<Request> parse_request(const std::string& line) {
  const auto tokens = tokenize(line);
  if (tokens.empty()) return malformed("empty line");
  Request request;
  if (tokens[0] == "dist") {
    if (tokens.size() < 3) return malformed("dist needs <p> <q>");
    request.kind = RequestKind::kDistance;
    if (!parse_size(tokens[1], &request.p) ||
        !parse_size(tokens[2], &request.q)) {
      return malformed("bad point index");
    }
  } else if (tokens[0] == "knn") {
    if (tokens.size() < 3) return malformed("knn needs <p> <k>");
    request.kind = RequestKind::kKnn;
    if (!parse_size(tokens[1], &request.p) ||
        !parse_size(tokens[2], &request.k)) {
      return malformed("bad point index or k");
    }
  } else if (tokens[0] == "range") {
    if (tokens.size() < 3) return malformed("range needs <p> <radius>");
    request.kind = RequestKind::kRangeCount;
    if (!parse_size(tokens[1], &request.p)) {
      return malformed("bad point index");
    }
    if (!parse_double(tokens[2], &request.radius)) {
      return malformed("bad radius '" + tokens[2] + "'");
    }
  } else if (tokens[0] == "upsert") {
    if (tokens.size() < 2) return malformed("upsert needs coordinates");
    request.kind = RequestKind::kUpsert;
    request.coords.reserve(tokens.size() - 1);
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      double coord = 0.0;
      if (!parse_double(tokens[i], &coord)) {
        return malformed("bad coordinate '" + tokens[i] + "'");
      }
      request.coords.push_back(coord);
    }
    return request;  // every token consumed; no combiner/deadline suffix
  } else if (tokens[0] == "remove") {
    if (tokens.size() != 2) return malformed("remove needs <id>");
    request.kind = RequestKind::kRemove;
    std::size_t id = 0;
    if (!parse_size(tokens[1], &id)) {
      return malformed("bad id '" + tokens[1] + "'");
    }
    request.id = id;
    return request;
  } else {
    return malformed("unknown verb '" + tokens[0] + "'");
  }
  const Status suffix = parse_suffix(tokens, 3, &request);
  if (!suffix.ok()) return suffix;
  return request;
}

std::string format_response(const Result<Response>& result) {
  if (!result.ok()) {
    return std::string("err ") + to_string(result.status().code()) + " " +
           result.status().message();
  }
  const Response& response = *result;
  std::string line = "ok ";
  line += to_string(response.kind);
  switch (response.kind) {
    case RequestKind::kDistance:
      line += " " + format_double(response.value);
      break;
    case RequestKind::kKnn:
      line += " " + std::to_string(response.neighbors.size());
      for (const Neighbor& neighbor : response.neighbors) {
        line += " " + std::to_string(neighbor.point) + ":" +
                format_double(neighbor.distance);
      }
      break;
    case RequestKind::kRangeCount:
      line += " " + std::to_string(
                        static_cast<unsigned long long>(response.value));
      break;
    case RequestKind::kUpsert:
    case RequestKind::kRemove:
      line += " id=" + std::to_string(response.id) +
              " epoch=" + std::to_string(response.epoch);
      break;
  }
  return line;
}

std::string format_info(std::size_t points, std::size_t trees,
                        std::uint64_t epoch, std::size_t dim) {
  // New fields append after the existing ones: clients probing with
  // "ok info points=%zu" keep parsing.
  return "ok info points=" + std::to_string(points) +
         " trees=" + std::to_string(trees) +
         " epoch=" + std::to_string(epoch) + " dim=" + std::to_string(dim);
}

std::string format_stats(const ServiceStats& stats) {
  // Route through the registry exporter: the line and the `metrics`
  // exposition render the same series, so they cannot disagree.
  obs::Registry registry;
  export_service_stats(stats, &registry);
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "ok stats qps=%.1f p50_ms=%.3f p99_ms=%.3f depth=%zu "
      "rejected=%llu completed=%llu",
      registry.gauge_value("mpte_serve_qps"),
      registry.gauge_value("mpte_serve_latency_p50_ms"),
      registry.gauge_value("mpte_serve_latency_p99_ms"),
      static_cast<std::size_t>(registry.gauge_value("mpte_serve_queue_depth")),
      static_cast<unsigned long long>(
          registry.counter_value("mpte_serve_rejected_queue_full_total") +
          registry.counter_value("mpte_serve_rejected_deadline_total")),
      static_cast<unsigned long long>(
          registry.counter_value("mpte_serve_completed_total")));
  return buffer;
}

bool is_ok_line(const std::string& line) {
  return line.rfind("ok", 0) == 0;
}

}  // namespace mpte::serve
