// mpte::serve — served answers vs direct queries, reads answered on the
// submitting thread, admission control on the update queue (backpressure +
// deadlines), the wire protocol, the socket server, and multi-threaded
// hammers suitable for the TSan job.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/net.hpp"
#include "common/rng.hpp"
#include "core/ensemble.hpp"
#include "geometry/generators.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"

namespace mpte::serve {
namespace {

EmbeddingEnsemble test_ensemble(std::size_t n = 60, std::size_t trees = 3,
                                std::uint64_t seed = 5) {
  const PointSet points = generate_uniform_cube(n, 3, 20.0, seed);
  EmbedOptions options;
  options.use_fjlt = false;
  options.seed = seed;
  auto result = EmbeddingEnsemble::build(points, options, trees);
  EXPECT_TRUE(result.ok()) << result.status().to_string();
  return std::move(result).value();
}

std::unique_ptr<dyn::DynamicEnsemble> test_dynamic_ensemble(
    std::size_t n = 40, std::size_t trees = 2, std::uint64_t seed = 5) {
  const PointSet points = generate_uniform_cube(n, 3, 20.0, seed);
  dyn::DynamicEnsemble::Options options;
  options.trees = trees;
  options.member.seed = seed;
  auto result = dyn::DynamicEnsemble::create(points, options);
  EXPECT_TRUE(result.ok()) << result.status().to_string();
  return std::move(result).value();
}

// ----------------------------------------------------------------- wire

TEST(Wire, ParsesDistanceWithDefaults) {
  const auto request = parse_request("dist 3 9");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->kind, RequestKind::kDistance);
  EXPECT_EQ(request->combiner, Combiner::kMin);
  EXPECT_EQ(request->p, 3u);
  EXPECT_EQ(request->q, 9u);
  EXPECT_EQ(request->deadline.count(), 0);
}

TEST(Wire, ParsesCombinerAndDeadline) {
  const auto request = parse_request("knn 5 8 exp 250");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->kind, RequestKind::kKnn);
  EXPECT_EQ(request->combiner, Combiner::kExpected);
  EXPECT_EQ(request->k, 8u);
  EXPECT_EQ(request->deadline, std::chrono::milliseconds(250));
  const auto range = parse_request("range 2 12.5 min");
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->kind, RequestKind::kRangeCount);
  EXPECT_EQ(range->radius, 12.5);
}

TEST(Wire, RejectsMalformedLines) {
  for (const char* line :
       {"", "dist", "dist 1", "dist 1 x", "knn 1 2 bogus", "range 1 nan2",
        "frob 1 2", "dist 1 2 min 10 extra", "dist -1 2", "knn 1 +3",
        "remove -1", "dist 1 2 min 86400001"}) {
    EXPECT_FALSE(parse_request(line).ok()) << "line: '" << line << "'";
    const auto status = parse_request(line).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
}

TEST(Wire, ControlLines) {
  EXPECT_EQ(parse_control("stats"), ControlCommand::kStats);
  EXPECT_EQ(parse_control("info"), ControlCommand::kInfo);
  EXPECT_EQ(parse_control("quit"), ControlCommand::kQuit);
  EXPECT_EQ(parse_control("shutdown"), ControlCommand::kShutdown);
  EXPECT_EQ(parse_control("dist 1 2"), ControlCommand::kNone);
  EXPECT_EQ(parse_control("statsx"), ControlCommand::kNone);
}

TEST(Wire, FormatsResponsesAndErrors) {
  Response distance;
  distance.kind = RequestKind::kDistance;
  distance.value = 1.5;
  EXPECT_EQ(format_response(distance), "ok dist 1.5");
  Response knn;
  knn.kind = RequestKind::kKnn;
  knn.neighbors = {{4, 2.0}, {7, 3.0}};
  knn.value = 2.0;
  EXPECT_EQ(format_response(knn), "ok knn 2 4:2 7:3");
  Response range;
  range.kind = RequestKind::kRangeCount;
  range.value = 12.0;
  EXPECT_EQ(format_response(range), "ok range 12");
  const std::string err = format_response(
      Status(StatusCode::kDeadlineExceeded, "too late"));
  EXPECT_EQ(err, "err deadline-exceeded too late");
  EXPECT_TRUE(is_ok_line("ok dist 1.5"));
  EXPECT_FALSE(is_ok_line(err));
}

// -------------------------------------------------------------- service

TEST(Service, BatchedAnswersMatchDirectQueries) {
  EmbeddingService service(test_ensemble());
  const EmbeddingEnsemble& ensemble = service.ensemble();
  const std::size_t n = ensemble.num_points();
  std::vector<Request> requests;
  for (std::size_t p = 0; p < n; p += 3) {
    for (std::size_t q = p + 1; q < n; q += 7) {
      requests.push_back(Request::Distance(p, q, Combiner::kMin));
      requests.push_back(Request::Distance(p, q, Combiner::kExpected));
    }
  }
  auto replies = service.submit_batch(requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto result = replies[i].get();
    ASSERT_TRUE(result.ok());
    const Request& request = requests[i];
    const double direct =
        request.combiner == Combiner::kMin
            ? ensemble.min_distance(request.p, request.q)
            : ensemble.expected_distance(request.p, request.q);
    EXPECT_EQ(result->value, direct) << "request " << i;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, requests.size());
  EXPECT_EQ(stats.submitted, requests.size());
}

TEST(Service, EnsembleQueriesMatchNaiveWalkOracle) {
  // The LcaIndex-backed ensemble path must agree with the O(depth)
  // Hst::distance walk (the oracle) to float tolerance.
  const EmbeddingEnsemble ensemble = test_ensemble(50, 4, 11);
  const std::size_t n = ensemble.num_points();
  for (std::size_t p = 0; p < n; p += 2) {
    for (std::size_t q = p; q < n; q += 5) {
      double walk_min = std::numeric_limits<double>::infinity();
      double walk_sum = 0.0;
      for (std::size_t t = 0; t < ensemble.size(); ++t) {
        const double walk = ensemble.member(t).distance(p, q);
        walk_min = std::min(walk_min, walk);
        walk_sum += walk;
      }
      const double walk_mean = walk_sum / static_cast<double>(ensemble.size());
      EXPECT_NEAR(ensemble.min_distance(p, q), walk_min,
                  1e-9 * (1.0 + walk_min));
      EXPECT_NEAR(ensemble.expected_distance(p, q), walk_mean,
                  1e-9 * (1.0 + walk_mean));
    }
  }
}

TEST(Service, KnnReturnsSortedNeighborsWithExactDistances) {
  EmbeddingService service(test_ensemble());
  const EmbeddingEnsemble& ensemble = service.ensemble();
  const std::size_t n = ensemble.num_points();
  for (const std::size_t p : {std::size_t{0}, n / 2, n - 1}) {
    auto result = service.submit(Request::Knn(p, 5)).get();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->neighbors.size(), 5u);
    double last = -1.0;
    for (const Neighbor& neighbor : result->neighbors) {
      EXPECT_NE(neighbor.point, p);
      EXPECT_GE(neighbor.distance, last);
      last = neighbor.distance;
      EXPECT_EQ(neighbor.distance, ensemble.min_distance(p, neighbor.point));
    }
  }
  // k larger than n-1 clamps.
  auto all = service.submit(Request::Knn(0, n + 10)).get();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->neighbors.size(), n - 1);
}

TEST(Service, RangeCountMatchesBruteForce) {
  EmbeddingService service(test_ensemble());
  const EmbeddingEnsemble& ensemble = service.ensemble();
  const std::size_t n = ensemble.num_points();
  for (const double radius : {0.0, 5.0, 15.0, 1e9}) {
    auto result = service.submit(Request::RangeCount(7, radius)).get();
    ASSERT_TRUE(result.ok());
    std::size_t expected = 0;
    for (std::size_t q = 0; q < n; ++q) {
      if (q != 7 && ensemble.min_distance(7, q) <= radius) ++expected;
    }
    EXPECT_EQ(result->value, static_cast<double>(expected))
        << "radius " << radius;
  }
}

TEST(Service, RepeatedAndSwappedPairsAnswerIdentically) {
  EmbeddingService service(test_ensemble());
  const auto first = service.submit(Request::Distance(1, 2)).get();
  const auto second = service.submit(Request::Distance(1, 2)).get();
  const auto swapped = service.submit(Request::Distance(2, 1)).get();
  ASSERT_TRUE(first.ok() && second.ok() && swapped.ok());
  EXPECT_EQ(first->value, second->value);
  EXPECT_EQ(first->value, swapped->value);
}

TEST(Service, InvalidRequestsGetTypedStatuses) {
  EmbeddingService service(test_ensemble(30, 1, 9));
  const auto out_of_range = service.submit(Request::Distance(0, 900)).get();
  EXPECT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);
  const auto zero_k = service.submit(Request::Knn(0, 0)).get();
  EXPECT_FALSE(zero_k.ok());
  EXPECT_EQ(zero_k.status().code(), StatusCode::kInvalidArgument);
  const auto negative = service.submit(Request::RangeCount(0, -1.0)).get();
  EXPECT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.stats().failed, 3u);
}

TEST(Service, PausedServiceStillAnswersReadsAtOnce) {
  // Reads never wait for the batcher: submit() evaluates them on the
  // calling thread, so the reply is ready when it returns.
  EmbeddingService service(test_ensemble(30, 1, 7));
  service.pause();
  for (const Request& request :
       {Request::Distance(0, 1), Request::Knn(2, 3),
        Request::RangeCount(4, 10.0, Combiner::kExpected)}) {
    Reply reply = service.submit(request);
    ASSERT_TRUE(reply.ready());
    EXPECT_EQ(format_response(reply.get()),
              format_response(service.evaluate(request)));
  }
  EXPECT_EQ(service.stats().completed, 3u);
}

// The update queue, exercised on a paused dynamic service: reads never
// queue, so only upsert/remove meet backpressure, deadlines and stop().

TEST(Service, BackpressureRejectsBeyondQueueBound) {
  ServiceOptions options;
  options.max_queue = 2;
  EmbeddingService service(test_dynamic_ensemble(), options);
  service.pause();
  auto a = service.submit(Request::Upsert({1.0, 2.0, 3.0}));
  auto b = service.submit(Request::Upsert({4.0, 5.0, 6.0}));
  auto c = service.submit(Request::Upsert({7.0, 8.0, 9.0}));  // over capacity
  const auto rejected = c.get();  // resolved immediately, while paused
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().rejected_queue_full, 1u);
  EXPECT_EQ(service.stats().queue_depth, 2u);
  EXPECT_FALSE(a.ready());  // queued until resume()
  // A full update queue does not hold up reads.
  EXPECT_TRUE(service.submit(Request::Distance(0, 1)).get().ok());
  service.resume();
  EXPECT_TRUE(a.get().ok());
  EXPECT_TRUE(b.get().ok());
}

TEST(Service, ExpiredDeadlineIsRejectedNotEvaluatedLate) {
  EmbeddingService service(test_dynamic_ensemble());
  service.pause();
  const std::size_t points = service.num_points();
  Request hurried = Request::Upsert({1.0, 2.0, 3.0});
  hurried.deadline = std::chrono::microseconds(1000);  // 1ms
  Request patient = Request::Upsert({4.0, 5.0, 6.0});  // no deadline
  // A read waits for its window's updates to publish, so its deadline can
  // pass before its turn too.
  Request hurried_read = Request::Distance(0, 1);
  hurried_read.deadline = std::chrono::microseconds(1000);
  Reply hurried_reply = service.submit(hurried);
  std::vector<Reply> window;
  std::thread submitter(
      [&] { window = service.submit_batch({patient, hurried_read}); });
  while (service.stats().queue_depth < 2) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.resume();
  submitter.join();
  for (Result<Response> late : {hurried_reply.get(), window[1].get()}) {
    EXPECT_FALSE(late.ok());
    EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_TRUE(window[0].get().ok());
  EXPECT_EQ(service.stats().rejected_deadline, 2u);
  EXPECT_EQ(service.num_points(), points + 1);  // the late one never applied
}

TEST(Service, StopRejectsQueuedAndSubsequentRequests) {
  EmbeddingService service(test_dynamic_ensemble());
  service.pause();
  auto queued = service.submit(Request::Upsert({1.0, 2.0, 3.0}));
  service.stop();
  const auto abandoned = queued.get();
  EXPECT_FALSE(abandoned.ok());
  EXPECT_EQ(abandoned.status().code(), StatusCode::kUnavailable);
  for (const Request& request :
       {Request::Upsert({4.0, 5.0, 6.0}), Request::Distance(0, 2)}) {
    const auto refused = service.submit(request).get();
    EXPECT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  }
}

TEST(Service, HammerManyClientThreadsMatchSerialAnswers) {
  // N client threads x M queries, deterministic per (thread, i); every
  // answer must equal the serial direct answer. Runs under TSan in CI.
  EmbeddingService service(test_ensemble(40, 2, 13));
  const EmbeddingEnsemble& ensemble = service.ensemble();
  const std::size_t n = ensemble.num_points();
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kQueries = 150;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (std::size_t c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kQueries; ++i) {
        const std::uint64_t h = mix64(c * kQueries + i + 1);
        const std::size_t p = h % n;
        const std::size_t q = (p + 1 + (h >> 32) % (n - 1)) % n;
        const Combiner combiner =
            (h & 1) != 0 ? Combiner::kMin : Combiner::kExpected;
        auto result =
            service.submit(Request::Distance(p, q, combiner)).get();
        const double direct = combiner == Combiner::kMin
                                  ? ensemble.min_distance(p, q)
                                  : ensemble.expected_distance(p, q);
        if (!result.ok() || result->value != direct) {
          failures[c] = "thread " + std::to_string(c) + " query " +
                        std::to_string(i) + " mismatch";
          return;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, kThreads * kQueries);
  EXPECT_GT(stats.qps, 0.0);
}

// --------------------------------------------------------------- server

TEST(Server, AnswersWireQueriesOverLoopback) {
  EmbeddingService service(test_ensemble());
  SocketServer server(service);  // port 0: ephemeral
  const auto port = server.start();
  ASSERT_TRUE(port.ok()) << port.status().to_string();

  LineClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", *port).ok());
  const auto info = client.roundtrip("info");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(*info, format_info(service.num_points(), service.num_trees(),
                               service.epoch(), service.dim()));
  EXPECT_EQ(service.epoch(), 0u);  // static service serves epoch 0

  const auto distance = client.roundtrip("dist 1 2");
  ASSERT_TRUE(distance.ok());
  const auto direct = service.evaluate(Request::Distance(1, 2));
  EXPECT_EQ(*distance, format_response(direct));

  const auto knn = client.roundtrip("knn 0 3");
  ASSERT_TRUE(knn.ok());
  EXPECT_TRUE(is_ok_line(*knn));
  const auto bad = client.roundtrip("dist 0");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(is_ok_line(*bad));

  // Pipelined burst: one write, responses in order.
  ASSERT_TRUE(client.send_line("dist 3 4\ndist 5 6\nrange 0 100").ok());
  for (int i = 0; i < 3; ++i) {
    const auto reply = client.read_line();
    ASSERT_TRUE(reply.ok());
    EXPECT_TRUE(is_ok_line(*reply)) << *reply;
  }

  const auto stats_line = client.roundtrip("stats");
  ASSERT_TRUE(stats_line.ok());
  EXPECT_TRUE(is_ok_line(*stats_line));

  LineClient closer;
  ASSERT_TRUE(closer.connect("127.0.0.1", *port).ok());
  const auto ack = closer.roundtrip("shutdown");
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(*ack, "ok shutdown");
  server.wait();  // returns because a client requested shutdown
  server.stop();
}

/// A bare loopback connection, for bytes a LineClient would not send.
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (fd >= 0 && ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(Server, OverlongLineGetsOneErrorThenTheConnectionCloses) {
  EmbeddingService service(test_ensemble());
  SocketServer server(service);
  const auto port = server.start();
  ASSERT_TRUE(port.ok()) << port.status().to_string();

  const int fd = connect_raw(*port);
  ASSERT_GE(fd, 0);
  // 2 MiB and no newline. The server stops reading past kMaxLineBytes and
  // closes, so this send may fail part way; only the reply matters.
  (void)net::send_all(fd, std::string(2 * kMaxLineBytes, 'x'));
  std::string received;
  while (true) {
    pollfd readable{fd, POLLIN, 0};
    ASSERT_EQ(::poll(&readable, 1, 10000), 1)
        << "no reply and no close within 10 s";
    char chunk[4096];
    const auto n = net::recv_some(
        fd, std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(chunk),
                                    sizeof(chunk)));
    if (!n.ok() || *n == 0) break;  // closed (FIN, or RST after unread data)
    received.append(chunk, *n);
  }
  ::close(fd);
  EXPECT_EQ(received,
            format_response(Status(StatusCode::kInvalidArgument,
                                   "line longer than " +
                                       std::to_string(kMaxLineBytes) +
                                       " bytes")) +
                "\n");

  // Other connections keep working.
  LineClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", *port).ok());
  const auto distance = client.roundtrip("dist 1 2");
  ASSERT_TRUE(distance.ok());
  EXPECT_EQ(*distance,
            format_response(service.evaluate(Request::Distance(1, 2))));
  server.stop();
}

TEST(Server, StopLeavesTheDescriptorsOfClosedConnectionsAlone) {
  EmbeddingService service(test_ensemble());
  SocketServer server(service);
  const auto port = server.start();
  ASSERT_TRUE(port.ok()) << port.status().to_string();
  {
    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", *port).ok());
    ASSERT_TRUE(client.send_line("quit").ok());
    // EOF: the server has closed its end of the connection.
    EXPECT_FALSE(client.read_line().ok());
  }
  // New descriptors take the lowest free numbers, including the one the
  // closed connection held on the server side.
  std::vector<std::array<int, 2>> pairs(4);
  for (auto& pair : pairs) {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair.data()), 0);
  }
  server.stop();
  for (const auto& pair : pairs) {
    EXPECT_TRUE(net::send_all(pair[0], std::string_view("ping")).ok());
    EXPECT_TRUE(net::send_all(pair[1], std::string_view("pong")).ok());
    // A descriptor stop() shut down would read EOF (0) here.
    std::array<std::uint8_t, 4> got{};
    const auto ping = net::recv_some(pair[1], got);
    EXPECT_TRUE(ping.ok() && *ping == got.size());
    const auto pong = net::recv_some(pair[0], got);
    EXPECT_TRUE(pong.ok() && *pong == got.size());
    ::close(pair[0]);
    ::close(pair[1]);
  }
}

std::size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

TEST(Server, EndedConnectionsLeaveNoThreadStacksMapped) {
  EmbeddingService service(test_ensemble());
  SocketServer server(service);
  const auto port = server.start();
  ASSERT_TRUE(port.ok()) << port.status().to_string();
  const std::size_t before = mapping_count();
  for (int i = 0; i < 300; ++i) {
    LineClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", *port).ok());
    ASSERT_TRUE(client.roundtrip("dist 1 2").ok());
    ASSERT_TRUE(client.send_line("quit").ok());
    // EOF: the server has closed its end of the connection.
    ASSERT_FALSE(client.read_line().ok());
  }
  // Each connection thread's stack is a mapping until the thread is
  // joined; 300 of them unjoined would add hundreds of lines.
  EXPECT_LT(mapping_count(), before + 50);
  server.stop();
}

// -------------------------------------------------------- dynamic serving

TEST(WireProtocol, ParsesUpdateVerbs) {
  const auto upsert = parse_request("upsert 1.5 -2 3e1");
  ASSERT_TRUE(upsert.ok()) << upsert.status().to_string();
  EXPECT_EQ(upsert->kind, RequestKind::kUpsert);
  EXPECT_EQ(upsert->coords, (std::vector<double>{1.5, -2.0, 30.0}));

  const auto remove = parse_request("remove 17");
  ASSERT_TRUE(remove.ok()) << remove.status().to_string();
  EXPECT_EQ(remove->kind, RequestKind::kRemove);
  EXPECT_EQ(remove->id, 17u);

  EXPECT_FALSE(parse_request("upsert").ok());
  EXPECT_FALSE(parse_request("upsert 1.0 nope").ok());
  EXPECT_FALSE(parse_request("remove").ok());
  EXPECT_FALSE(parse_request("remove 1 2").ok());
}

TEST(WireProtocol, FormatsUpdateResponsesAndInfoWithEpoch) {
  Response response;
  response.kind = RequestKind::kUpsert;
  response.id = 12;
  response.epoch = 4;
  EXPECT_EQ(format_response(Result<Response>(response)),
            "ok upsert id=12 epoch=4");
  response.kind = RequestKind::kRemove;
  EXPECT_EQ(format_response(Result<Response>(response)),
            "ok remove id=12 epoch=4");
  EXPECT_EQ(format_info(100, 4, 7, 3),
            "ok info points=100 trees=4 epoch=7 dim=3");
}

TEST(DynamicService, StaticServiceRejectsUpdates) {
  EmbeddingService service(test_ensemble());
  const std::vector<double> p = {1.0, 2.0, 3.0};
  auto upsert = service.submit(Request::Upsert(p)).get();
  EXPECT_EQ(upsert.status().code(), StatusCode::kInvalidArgument);
  auto remove = service.submit(Request::Remove(0)).get();
  EXPECT_EQ(remove.status().code(), StatusCode::kInvalidArgument);
  // evaluate() refuses updates outright (they mutate state).
  EXPECT_FALSE(service.evaluate(Request::Remove(0)).ok());
}

TEST(DynamicService, UpsertRemovePublishEpochsAndStampResponses) {
  EmbeddingService service(test_dynamic_ensemble());
  ASSERT_TRUE(service.is_dynamic());
  EXPECT_EQ(service.epoch(), 1u);  // create() published epoch 1
  const std::size_t initial_points = service.num_points();

  const std::vector<double> p = {3.0, 4.0, 5.0};
  auto upsert = service.submit(Request::Upsert(p)).get();
  ASSERT_TRUE(upsert.ok()) << upsert.status().to_string();
  EXPECT_EQ(upsert->id, initial_points);
  EXPECT_GE(upsert->epoch, 2u);
  EXPECT_EQ(service.num_points(), initial_points + 1);

  auto remove = service.submit(Request::Remove(upsert->id)).get();
  ASSERT_TRUE(remove.ok()) << remove.status().to_string();
  EXPECT_EQ(remove->id, upsert->id);
  EXPECT_GT(remove->epoch, upsert->epoch);
  EXPECT_EQ(service.num_points(), initial_points);

  // Unknown id surfaces the dyn layer's rejection through the batcher.
  auto bad = service.submit(Request::Remove(9999)).get();
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  // Queries against the dynamic service carry the epoch they reflect and
  // match the direct oracle.
  auto queried = service.submit(Request::Distance(1, 2)).get();
  ASSERT_TRUE(queried.ok());
  EXPECT_EQ(queried->epoch, service.epoch());
  auto direct = service.evaluate(Request::Distance(1, 2));
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(queried->value, direct->value);
}

TEST(DynamicService, QueryAfterAnUpsertAnswersFromTheNewEpoch) {
  // The batch that applies an upsert publishes a new epoch before it
  // evaluates anything; a later query is stamped with that epoch and
  // equals evaluate() on it.
  EmbeddingService service(test_dynamic_ensemble(30));
  const std::size_t n = service.num_points();
  auto before = service.submit(Request::Distance(3, 4)).get();
  ASSERT_TRUE(before.ok());

  const std::vector<double> p = {9.0, 9.0, 9.0};
  auto upsert = service.submit(Request::Upsert(p)).get();
  ASSERT_TRUE(upsert.ok()) << upsert.status().to_string();
  EXPECT_GT(upsert->epoch, before->epoch);
  ASSERT_EQ(service.epoch(), upsert->epoch);

  // The new point has the highest stable id, so its dense index is n; the
  // superseded epoch has no such point.
  for (const Request& request :
       {Request::Distance(3, 4), Request::Distance(0, n),
        Request::RangeCount(3, std::numeric_limits<double>::infinity())}) {
    auto served = service.submit(request).get();
    ASSERT_TRUE(served.ok()) << served.status().to_string();
    EXPECT_EQ(served->epoch, upsert->epoch);
    const auto direct = service.evaluate(request);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(direct->epoch, upsert->epoch);
    EXPECT_EQ(served->value, direct->value);
  }
  auto all = service.submit(Request::RangeCount(
                                3, std::numeric_limits<double>::infinity()))
                 .get();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->value, static_cast<double>(n));  // every other point
}

TEST(DynamicService, WindowReadsAreStampedWithTheWindowsUpdateEpoch) {
  // The window's update is published before any of its reads is
  // evaluated, whatever their order in the window.
  EmbeddingService service(test_dynamic_ensemble());
  const std::uint64_t before = service.epoch();
  auto replies = service.submit_batch({Request::Distance(1, 2),
                                       Request::Upsert({2.0, 3.0, 4.0}),
                                       Request::Distance(3, 4)});
  const auto first = replies[0].get();
  const auto upsert = replies[1].get();
  const auto second = replies[2].get();
  ASSERT_TRUE(first.ok() && upsert.ok() && second.ok());
  EXPECT_GT(upsert->epoch, before);
  EXPECT_EQ(first->epoch, upsert->epoch);
  EXPECT_EQ(second->epoch, upsert->epoch);
  ASSERT_EQ(service.epoch(), upsert->epoch);
  EXPECT_EQ(first->value, service.evaluate(Request::Distance(1, 2))->value);
  EXPECT_EQ(second->value, service.evaluate(Request::Distance(3, 4))->value);
}

TEST(DynamicService, ConcurrentMixedWindowsReadNoOlderThanTheirUpdates) {
  // Four threads send windows of reads and updates at once. Each read
  // must reflect an epoch no older than the one its window's updates
  // published. Runs under TSan in CI.
  EmbeddingService service(test_dynamic_ensemble(40, 2, 17));
  const std::size_t n = service.num_points();
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kWindows = 12;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (std::size_t c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::uint64_t> mine;  // ids this thread inserted
      for (std::size_t w = 0; w < kWindows; ++w) {
        const std::uint64_t h = mix64(c * kWindows + w + 1);
        const std::size_t p = h % n;
        const std::size_t q = (h >> 20) % n;
        std::vector<Request> window = {
            Request::Distance(p, q),
            Request::Upsert({static_cast<double>(h % 19),
                             static_cast<double>((h >> 8) % 19),
                             static_cast<double>((h >> 16) % 19)}),
            Request::Knn(q, 3, Combiner::kExpected)};
        if (!mine.empty() && (h & 1) != 0) {
          window.push_back(Request::Remove(mine.back()));
          mine.pop_back();
        }
        window.push_back(Request::RangeCount(p, 12.0));
        std::vector<Result<Response>> replies;
        for (Reply& reply : service.submit_batch(window)) {
          replies.push_back(reply.get());
        }
        std::uint64_t published = 0;
        for (std::size_t i = 0; i < window.size(); ++i) {
          if (!replies[i].ok()) {
            failures[c] = "window " + std::to_string(w) + " request " +
                          std::to_string(i) + ": " +
                          replies[i].status().to_string();
            return;
          }
          if (window[i].kind == RequestKind::kUpsert) {
            mine.push_back(replies[i]->id);
          }
          if (is_update(window[i].kind)) {
            published = std::max(published, replies[i]->epoch);
          }
        }
        for (std::size_t i = 0; i < window.size(); ++i) {
          if (!is_update(window[i].kind) && replies[i]->epoch < published) {
            failures[c] = "window " + std::to_string(w) + " read " +
                          std::to_string(i) + " at epoch " +
                          std::to_string(replies[i]->epoch) +
                          " < published " + std::to_string(published);
            return;
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.submitted, stats.completed);
}

TEST(DynamicService, NonFiniteInputsGetInvalidArgumentOverTheWire) {
  EmbeddingService service(test_dynamic_ensemble());
  SocketServer server(service);
  const auto port = server.start();
  ASSERT_TRUE(port.ok()) << port.status().to_string();
  const std::size_t points = service.num_points();
  const std::uint64_t epoch = service.epoch();

  LineClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", *port).ok());
  for (const char* line : {"upsert nan nan nan", "upsert 1 inf 2",
                           "upsert -inf 0 0", "range 0 nan"}) {
    const auto reply = client.roundtrip(line);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->rfind("err invalid-argument ", 0), 0u)
        << line << " -> " << *reply;
  }
  EXPECT_EQ(service.num_points(), points);
  EXPECT_EQ(service.epoch(), epoch);  // nothing was applied or published
  // An infinite radius is a number: it counts every other point.
  const auto all = client.roundtrip("range 0 inf");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, "ok range " + std::to_string(points - 1));
  server.stop();
}

TEST(DynamicService, ServesUpdateVerbsOverLoopback) {
  EmbeddingService service(test_dynamic_ensemble());
  SocketServer server(service);
  const auto port = server.start();
  ASSERT_TRUE(port.ok()) << port.status().to_string();

  LineClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", *port).ok());
  const std::size_t points_before = service.num_points();

  const auto upsert = client.roundtrip("upsert 1.0 2.0 3.0");
  ASSERT_TRUE(upsert.ok());
  EXPECT_EQ(*upsert, "ok upsert id=" + std::to_string(points_before) +
                         " epoch=" + std::to_string(service.epoch()));

  const auto info = client.roundtrip("info");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(*info, format_info(points_before + 1, service.num_trees(),
                               service.epoch(), service.dim()));

  const auto removed = client.roundtrip(
      "remove " + std::to_string(points_before));
  ASSERT_TRUE(removed.ok());
  EXPECT_TRUE(is_ok_line(*removed)) << *removed;
  EXPECT_EQ(service.num_points(), points_before);

  const auto bad = client.roundtrip("remove notanid");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(is_ok_line(*bad));

  server.stop();
}

}  // namespace
}  // namespace mpte::serve
