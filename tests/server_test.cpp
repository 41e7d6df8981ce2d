//===- tests/server_test.cpp - socket front-end tests ---------------------===//
//
// End-to-end tests of the offchip-serve TCP layer against a real
// in-process SocketServer on an ephemeral port: the server-level methods
// (ping/apps/stats), a full optimize request over the wire, malformed-line
// handling, pipelined ids, the line-length cap, concurrent hits and misses
// checked against direct runs, the already-bound-port diagnostic, and
// graceful shutdown (every admitted request answered before run() returns).
//
//===----------------------------------------------------------------------===//

#include "api/ContentHash.h"
#include "api/Execute.h"
#include "api/Serialize.h"
#include "api/Socket.h"
#include "api/SocketServer.h"

#include "gtest/gtest.h"

#include <atomic>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

using namespace offchip;

namespace {

const char *TinyProgram = R"(
program tiny
array a dims 32 32 elem 8

nest sweep bounds 0:32 1:31 parallel 0
  read  a [ i1-1, i0 ]
  write a [ i1, i0 ]
end
)";

/// A running server on an ephemeral port plus a connected line client.
class ServerTest : public ::testing::Test {
protected:
  void SetUp() override {
    Service.emplace(ServiceOptions{/*Workers=*/2, /*QueueDepth=*/8,
                                   /*CacheCapacity=*/8});
    Server.emplace(*Service, ServerOptions{"127.0.0.1", 0});
    std::string Err;
    ASSERT_TRUE(Server->start(&Err)) << Err;
    Runner = std::thread([this] { Server->run(); });
    Fd = connectTcp("127.0.0.1", Server->port(), &Err);
    ASSERT_GE(Fd, 0) << Err;
    Reader.emplace(Fd);
  }

  void TearDown() override {
    if (Fd >= 0)
      ::close(Fd);
    if (Runner.joinable()) {
      Server->requestStop();
      Runner.join();
    }
  }

  /// Sends one protocol line and parses the next response line.
  JsonValue roundtrip(const std::string &Line) {
    EXPECT_TRUE(sendAll(Fd, Line + "\n"));
    return nextResponse();
  }

  JsonValue nextResponse() {
    std::string Line;
    EXPECT_TRUE(Reader->readLine(&Line));
    std::string Err;
    std::optional<JsonValue> V = parseJson(Line, &Err);
    EXPECT_TRUE(V.has_value()) << Err << " in: " << Line;
    return V ? *V : JsonValue();
  }

  std::optional<SimService> Service;
  std::optional<SocketServer> Server;
  std::thread Runner;
  int Fd = -1;
  std::optional<LineReader> Reader;
};

std::string field(const JsonValue &V, const char *Key) {
  const JsonValue *F = V.find(Key);
  return F && F->isString() ? F->asString() : std::string();
}

TEST_F(ServerTest, PingAppsStats) {
  JsonValue Pong = roundtrip("{\"id\":\"p1\",\"method\":\"ping\"}");
  EXPECT_EQ(field(Pong, "id"), "p1");
  EXPECT_EQ(field(Pong, "status"), "ok");

  JsonValue Apps = roundtrip("{\"method\":\"apps\"}");
  EXPECT_EQ(field(Apps, "status"), "ok");
  const JsonValue *List = Apps.find("apps");
  ASSERT_NE(List, nullptr);
  ASSERT_TRUE(List->isArray());
  EXPECT_GT(List->size(), 0u) << "workload registry must not be empty";

  JsonValue Stats = roundtrip("{\"method\":\"stats\"}");
  EXPECT_EQ(field(Stats, "status"), "ok");
  ASSERT_NE(Stats.find("completed"), nullptr);
  ASSERT_NE(Stats.find("cache_hits"), nullptr);
}

TEST_F(ServerTest, ServedOptimizeMatchesDirectExecution) {
  SimRequest R;
  R.Id = "opt-1";
  R.Kind = RequestKind::Optimize;
  R.Workload.ProgramText = TinyProgram;

  JsonValue Answer = roundtrip(
      writeRequestLine(R).substr(0, writeRequestLine(R).size() - 1));
  SimResponse Served;
  std::string Err;
  ASSERT_TRUE(responseFromJson(Answer, &Served, &Err)) << Err;
  ASSERT_TRUE(Served.ok());
  EXPECT_EQ(Served.Id, "opt-1");
  EXPECT_EQ(Served.Key, requestKey(R).str());
  EXPECT_FALSE(Served.CacheHit);

  SimResponse Direct = executeRequest(R);
  EXPECT_EQ(toJson(Served.Plan).write(), toJson(Direct.Plan).write());

  // Same content, new id: a hit, same plan.
  R.Id = "opt-2";
  SimResponse Again;
  ASSERT_TRUE(responseFromJson(
      roundtrip(writeRequestLine(R).substr(
          0, writeRequestLine(R).size() - 1)),
      &Again, &Err))
      << Err;
  EXPECT_EQ(Again.Id, "opt-2");
  EXPECT_TRUE(Again.CacheHit);
  EXPECT_EQ(toJson(Again.Plan).write(), toJson(Direct.Plan).write());
}

TEST_F(ServerTest, MalformedAndInvalidLinesAnswerErrors) {
  JsonValue NotJson = roundtrip("this is not json");
  EXPECT_EQ(field(NotJson, "status"), "error");

  JsonValue BadReq = roundtrip("{\"method\":\"simulate\"}");
  EXPECT_EQ(field(BadReq, "status"), "error");
  EXPECT_NE(field(BadReq, "error").find("app"), std::string::npos);

  JsonValue BadConfig = roundtrip(
      "{\"id\":\"c1\",\"method\":\"optimize\",\"app\":\"swim\","
      "\"config\":{\"mesh_x\":1}}");
  EXPECT_EQ(field(BadConfig, "id"), "c1");
  EXPECT_EQ(field(BadConfig, "status"), "error");
  const JsonValue *Diags = BadConfig.find("diagnostics");
  ASSERT_NE(Diags, nullptr);
  ASSERT_GT(Diags->size(), 0u);
  EXPECT_EQ(field(Diags->at(0), "field"), "MeshX");

  // The connection survives all three errors.
  EXPECT_EQ(field(roundtrip("{\"id\":\"after\",\"method\":\"ping\"}"), "id"),
            "after");
  // The unparsable line and the invalid request both count; the config
  // error does not (it is a well-formed request answered with diagnostics).
  EXPECT_EQ(Server->counters().ParseErrors, 2u);
}

TEST_F(ServerTest, PipelinedRequestsAllAnswered) {
  // Fire a burst without reading, then collect; ids correlate answers.
  std::string Burst;
  for (int I = 0; I < 8; ++I) {
    SimRequest R;
    R.Id = "b" + std::to_string(I);
    R.Kind = RequestKind::Optimize;
    R.Workload.ProgramText = TinyProgram;
    Burst += writeRequestLine(R);
  }
  ASSERT_TRUE(sendAll(Fd, Burst));
  std::set<std::string> Ids;
  for (int I = 0; I < 8; ++I) {
    JsonValue V = nextResponse();
    EXPECT_EQ(field(V, "status"), "ok");
    Ids.insert(field(V, "id"));
  }
  EXPECT_EQ(Ids.size(), 8u) << "every pipelined request answered exactly once";
}

TEST_F(ServerTest, GracefulStopDeliversInFlightAnswers) {
  SimRequest R;
  R.Id = "last";
  R.Kind = RequestKind::Optimize;
  R.Workload.ProgramText = TinyProgram;
  ASSERT_TRUE(sendAll(Fd, writeRequestLine(R)));
  // Stop as soon as the request is admitted (stopping earlier may close
  // the connection before the line is even read — bytes still in the
  // kernel buffer are not "in flight"): the admitted request must be
  // answered and flushed before run() returns.
  while (Service->stats().Admitted == 0)
    std::this_thread::yield();
  Server->requestStop();
  Runner.join();
  JsonValue V = nextResponse();
  EXPECT_EQ(field(V, "id"), "last");
  EXPECT_EQ(field(V, "status"), "ok");
  EXPECT_EQ(Service->stats().Completed, 1u);
}

TEST_F(ServerTest, OverlongLineIsCutOffWithoutStallingOthers) {
  // A client streaming one endless line gets a single error line and is
  // disconnected once the line passes the cap; the fixture's client is
  // served normally meanwhile.
  std::string Err;
  int Flood = connectTcp("127.0.0.1", Server->port(), &Err);
  ASSERT_GE(Flood, 0) << Err;
  // Fail instead of hanging if the server never answers the flood.
  struct timeval Timeout = {30, 0};
  setsockopt(Flood, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
  std::atomic<std::size_t> Sent{0};
  std::atomic<bool> Cut{false};
  std::thread Writer([&] {
    std::string Chunk(64 * 1024, 'x');
    // Far past the cap; stops as soon as the server closes the connection.
    while (Sent.load() < 16 * LineReader::MaxLineBytes) {
      if (!sendAll(Flood, Chunk)) {
        Cut = true;
        return;
      }
      Sent += Chunk.size();
    }
  });
  while (Sent.load() < LineReader::MaxLineBytes / 4 && !Cut.load())
    std::this_thread::yield();
  SimRequest R;
  R.Id = "during-flood";
  R.Kind = RequestKind::Optimize;
  R.Workload.ProgramText = TinyProgram;
  std::string Line = writeRequestLine(R);
  JsonValue Answer = roundtrip(Line.substr(0, Line.size() - 1));
  EXPECT_EQ(field(Answer, "id"), "during-flood");
  EXPECT_EQ(field(Answer, "status"), "ok");
  EXPECT_EQ(field(roundtrip("{\"id\":\"p\",\"method\":\"ping\"}"), "id"),
            "p");

  Writer.join();
  EXPECT_TRUE(Cut.load()) << "the server kept reading the endless line";
  LineReader FloodReader(Flood);
  std::string Reply;
  ASSERT_TRUE(FloodReader.readLine(&Reply));
  std::optional<JsonValue> V = parseJson(Reply, &Err);
  ASSERT_TRUE(V.has_value()) << Err << " in: " << Reply;
  EXPECT_EQ(field(*V, "status"), "error");
  EXPECT_NE(field(*V, "error").find("exceeds"), std::string::npos) << Reply;
  EXPECT_FALSE(FloodReader.readLine(&Reply)) << "connection left open";
  ::close(Flood);
  EXPECT_EQ(Server->counters().ParseErrors, 1u);
}

TEST_F(ServerTest, ConcurrentHitsAndMissesMatchDirectRuns) {
  // Four connections on two workers repeat three Simulate contents, so
  // misses, single-flight attaches and cache hits (answered on the
  // connection threads) interleave. Every answer must equal a direct run.
  constexpr unsigned Clients = 4, PerClient = 6, Contents = 3;
  std::vector<SimRequest> Reqs(Contents);
  std::vector<SimResponse> Direct(Contents);
  for (unsigned K = 0; K < Contents; ++K) {
    Reqs[K].Kind = RequestKind::Simulate;
    Reqs[K].Workload.ProgramText =
        std::string(TinyProgram) + "# item " + std::to_string(K) + "\n";
    Direct[K] = executeRequest(Reqs[K]);
    ASSERT_TRUE(Direct[K].ok());
  }

  std::atomic<bool> Go{false};
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      std::string Err;
      int ClientFd = connectTcp("127.0.0.1", Server->port(), &Err);
      ASSERT_GE(ClientFd, 0) << Err;
      LineReader In(ClientFd);
      while (!Go.load())
        std::this_thread::yield();
      for (unsigned I = 0; I < PerClient; ++I) {
        unsigned K = (C + I) % Contents;
        SimRequest R = Reqs[K];
        R.Id = "c" + std::to_string(C) + "-" + std::to_string(I);
        ASSERT_TRUE(sendAll(ClientFd, writeRequestLine(R)));
        std::string Line;
        ASSERT_TRUE(In.readLine(&Line));
        std::optional<JsonValue> V = parseJson(Line, &Err);
        ASSERT_TRUE(V.has_value()) << Err;
        SimResponse Served;
        ASSERT_TRUE(responseFromJson(*V, &Served, &Err)) << Err;
        ASSERT_TRUE(Served.ok()) << Line;
        EXPECT_EQ(Served.Id, R.Id);
        EXPECT_EQ(Served.Key, requestKey(R).str());
        std::string Why;
        EXPECT_TRUE(equalResults(*Served.Original, *Direct[K].Original, &Why))
            << Why;
        EXPECT_TRUE(
            equalResults(*Served.Optimized, *Direct[K].Optimized, &Why))
            << Why;
        EXPECT_EQ(toJson(Served.Plan).write(), toJson(Direct[K].Plan).write());
      }
      ::close(ClientFd);
    });
  Go = true;
  for (std::thread &T : Threads)
    T.join();

  Service->drain();
  SimService::Stats S = Service->stats();
  EXPECT_EQ(S.Completed, Clients * PerClient);
  EXPECT_EQ(S.Rejected, 0u);
  // Each content executes once; every other request is a hit or attach.
  EXPECT_EQ(S.Cache.Misses, Contents);
  EXPECT_EQ(S.Cache.Hits + S.SingleflightHits,
            Clients * PerClient - Contents);
  EXPECT_GT(S.Cache.Hits, 0u);
}

TEST(SocketServer, RefusesAlreadyBoundPort) {
  SimService Service({1, 4, 0});
  SocketServer First(Service, {"127.0.0.1", 0});
  std::string Err;
  ASSERT_TRUE(First.start(&Err)) << Err;

  SocketServer Second(Service, {"127.0.0.1", First.port()});
  EXPECT_FALSE(Second.start(&Err));
  EXPECT_NE(Err.find("already in use"), std::string::npos) << Err;
  EXPECT_NE(Err.find(std::to_string(First.port())), std::string::npos) << Err;
}

TEST(SocketServer, StopBeforeAnyConnectionIsClean) {
  SimService Service({1, 4, 0});
  SocketServer Server(Service, {"127.0.0.1", 0});
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;
  std::thread T([&Server] { Server.run(); });
  Server.requestStop();
  T.join();
  EXPECT_EQ(Server.counters().Connections, 0u);
}

} // namespace
