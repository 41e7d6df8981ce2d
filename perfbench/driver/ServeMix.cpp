//===- perfbench/driver/ServeMix.cpp - the serve-mix workload -------------===//
///
/// A closed loop of four clients, each on its own connection, drives a
/// fresh offchip-serve (two workers, empty cache) over TCP with a seeded
/// request sequence: about one request in five carries new content (a cache
/// miss the daemon must compute), the rest repeat earlier content — half of
/// them content introduced moments ago, so copies are often still in
/// flight and merge (single-flight), half anything seen before (cache
/// hits). Contents come from a fixed set of templates (registry apps at
/// reduced scale and inline program text, simulated or only optimized); a
/// new item is a template with a unique tag, so every run meets the same
/// kinds of work whatever the seed.
///
/// After the timed window the daemon is stopped and every distinct
/// response is checked once, bit for bit, against a direct executeRequest()
/// run; every repeat must equal the first answer for its content.
///
/// A traced run measures four quarter-length windows, each against a fresh
/// daemon and each checked: untraced, traced, untraced, traced. The last
/// one's spans are kept and give the per-layer figures.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "api/ContentHash.h"
#include "api/Execute.h"
#include "api/Serialize.h"
#include "api/Socket.h"
#include "support/Format.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <poll.h>
#include <random>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <unordered_set>

using namespace offchip;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

constexpr unsigned Clients = 4;
constexpr unsigned DaemonJobs = 2;
constexpr std::size_t MinAnswered = 1000;
constexpr double NewShare = 0.2;
/// Pause between an answer and the client's next request. Without it the
/// four clients keep both workers busy with misses, every hit queues behind
/// one in the worker pool, and the median measures that queue instead of
/// the hit path.
constexpr auto ThinkTime = std::chrono::milliseconds(10);

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

//===----------------------------------------------------------------------===//
// The daemon
//===----------------------------------------------------------------------===//

/// One offchip-serve child process, stopped (SIGTERM, drain, reap) on
/// destruction.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() { stop(); }

  /// Starts the daemon and waits until it listens. \returns false with
  /// \p Err when it cannot be started or does not come up.
  bool start(const std::string &Bin, std::string *Err);
  /// Stops and reaps the daemon; \returns its peak resident set in MB.
  double stop();
  unsigned port() const { return Port; }

private:
  pid_t Pid = -1;
  int OutFd = -1;
  unsigned Port = 0;
};

bool Daemon::start(const std::string &Bin, std::string *Err) {
  int Pipe[2];
  if (pipe(Pipe) != 0) {
    *Err = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::string Jobs = formatString("%u", DaemonJobs);
  std::vector<std::string> Args = {Bin,    "--host",          "127.0.0.1",
                                   "--port", "0",              "--jobs",
                                   Jobs,   "--cache-entries", "65536"};
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  Pid = fork();
  if (Pid < 0) {
    *Err = std::string("fork: ") + std::strerror(errno);
    close(Pipe[0]);
    close(Pipe[1]);
    return false;
  }
  if (Pid == 0) {
    dup2(Pipe[1], STDOUT_FILENO);
    close(Pipe[0]);
    close(Pipe[1]);
    execv(Bin.c_str(), Argv.data());
    _exit(127);
  }
  close(Pipe[1]);
  OutFd = Pipe[0];
  // The daemon prints "offchip-serve: listening on HOST:PORT (...)" once its
  // socket is bound.
  std::string Line;
  Clock::time_point Start = Clock::now();
  while (Line.find('\n') == std::string::npos) {
    struct pollfd P = {OutFd, POLLIN, 0};
    int Left = 30000 - static_cast<int>(secondsSince(Start) * 1000);
    if (Left <= 0 || poll(&P, 1, Left) <= 0) {
      *Err = "daemon did not start listening within 30 s";
      return false;
    }
    char Buf[256];
    ssize_t N = read(OutFd, Buf, sizeof(Buf));
    if (N <= 0) {
      *Err = "daemon exited before listening: " + Bin;
      return false;
    }
    Line.append(Buf, static_cast<std::size_t>(N));
  }
  std::size_t At = Line.find("listening on ");
  std::size_t Colon = Line.find(':', At == std::string::npos ? 0 : At + 13);
  if (At == std::string::npos || Colon == std::string::npos) {
    *Err = "unexpected daemon banner: " + Line;
    return false;
  }
  Port = static_cast<unsigned>(std::strtoul(Line.c_str() + Colon + 1,
                                            nullptr, 10));
  return Port != 0;
}

double Daemon::stop() {
  if (Pid <= 0)
    return 0.0;
  kill(Pid, SIGTERM);
  struct rusage U = {};
  int Status = 0;
  Clock::time_point Start = Clock::now();
  // SIGTERM drains admitted requests; escalate only if that hangs.
  while (wait4(Pid, &Status, WNOHANG, &U) == 0) {
    if (secondsSince(Start) > 30.0) {
      kill(Pid, SIGKILL);
      wait4(Pid, &Status, 0, &U);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Pid = -1;
  if (OutFd >= 0)
    close(OutFd);
  OutFd = -1;
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

//===----------------------------------------------------------------------===//
// The request mix
//===----------------------------------------------------------------------===//

/// A small transposed-sweep program: simulates in milliseconds and gives
/// the layout pass a reference to fix.
const char *SweepProgram = R"(program sweep2d
array a dims 96 96 elem 8
array b dims 96 96 elem 8
nest t bounds 0:96 1:95 parallel 0
  read  a [ i1-1, i0 ]
  read  b [ i0, i1 ]
  write b [ i0, i1 ]
end
)";

/// A 3D halo stencil in program text.
const char *StencilProgram = R"(program halo3d
array u dims 24 24 24 elem 8
array v dims 24 24 24 elem 8
nest s bounds 1:23 1:23 1:23 parallel 0
  read  u [ i0-1, i1, i2 ]
  read  u [ i0+1, i1, i2 ]
  read  u [ i0, i1-1, i2 ]
  read  u [ i0, i1+1, i2 ]
  write v [ i0, i1, i2 ]
end
)";

struct Template {
  const char *Name;
  RequestKind Kind;
  const char *App;  // registry app, or nullptr for Text
  double Scale;
  const char *Text;
  unsigned Weight; // relative share of new content
};

/// The fixed content templates. Simulate requests answer with two
/// simulations; Optimize requests only plan. Simulate content is weighted
/// to about three quarters, so the median answer is a hit on a Simulate
/// response rather than the edge between two answer sizes.
const std::vector<Template> &templates() {
  static const std::vector<Template> T = {
      {"sim-swim", RequestKind::Simulate, "swim", 0.1, nullptr, 2},
      {"sim-mgrid", RequestKind::Simulate, "mgrid", 0.1, nullptr, 2},
      {"sim-sweep2d", RequestKind::Simulate, nullptr, 1.0, SweepProgram, 2},
      {"sim-halo3d", RequestKind::Simulate, nullptr, 1.0, StencilProgram, 2},
      {"opt-applu", RequestKind::Optimize, "applu", 0.5, nullptr, 1},
      {"opt-galgel", RequestKind::Optimize, "galgel", 0.5, nullptr, 1},
      {"opt-sweep2d", RequestKind::Optimize, nullptr, 1.0, SweepProgram, 1},
  };
  return T;
}

/// One distinct request content and the template it came from.
struct Content {
  SimRequest Req;
  unsigned Template = 0;
};

/// The seeded request sequence: indices into its distinct contents.
struct Mix {
  std::vector<Content> Distinct;
  std::vector<std::size_t> Seq;

  SimRequest request(std::size_t I) const {
    SimRequest R = Distinct[Seq[I]].Req;
    R.Id = formatString("r%zu", I);
    return R;
  }
};

SimRequest instantiate(const Template &T, unsigned Tag) {
  SimRequest R;
  R.Kind = T.Kind;
  if (T.App) {
    R.Workload.App = T.App;
    // A tag-sized scale change keeps the array extents (and so the work)
    // but gives the request new content.
    R.Workload.SizeScale = T.Scale + 1e-7 * Tag;
  } else {
    R.Workload.ProgramText = formatString("%s# item %u\n", T.Text, Tag);
  }
  return R;
}

/// The first new items introduce every template once (in seeded order), so
/// each run covers all of them.
Mix makeMix(std::uint64_t Seed, std::size_t N) {
  std::mt19937_64 Rng(Seed);
  std::uniform_real_distribution<double> U(0.0, 1.0);
  const std::vector<Template> &T = templates();
  std::vector<unsigned> Intro(T.size());
  for (unsigned I = 0; I < Intro.size(); ++I)
    Intro[I] = I;
  std::shuffle(Intro.begin(), Intro.end(), Rng);
  std::vector<unsigned> Weights;
  for (const Template &X : T)
    Weights.push_back(X.Weight);
  std::discrete_distribution<unsigned> Pick(Weights.begin(), Weights.end());
  Mix M;
  for (std::size_t I = 0; I < N; ++I) {
    std::size_t D = M.Distinct.size();
    if (D == 0 || U(Rng) < NewShare) {
      unsigned K = D < Intro.size() ? Intro[D] : Pick(Rng);
      M.Distinct.push_back({instantiate(T[K], static_cast<unsigned>(D)), K});
      M.Seq.push_back(D);
    } else if (U(Rng) < 0.5) {
      // Content introduced moments ago: often still in flight.
      std::size_t Recent = std::min<std::size_t>(3, D);
      M.Seq.push_back(D - 1 - static_cast<std::size_t>(U(Rng) * Recent));
    } else {
      M.Seq.push_back(static_cast<std::size_t>(U(Rng) * D));
    }
  }
  return M;
}

//===----------------------------------------------------------------------===//
// Clients
//===----------------------------------------------------------------------===//

/// What the benchmark observed about one answered request.
struct Sample {
  std::size_t Index = 0;
  double RttMs = 0.0;
  double RequestMs = 0.0; // key, encode, round trips and decode
  double EncodeUs = 0.0, DecodeUs = 0.0, KeyUs = 0.0;
  double ServerS = 0.0;
  bool Hit = false, Singleflight = false;
  std::string Key;
  /// Digest of the answer's plan and results in wire form.
  std::uint64_t BodyHash = 0;
  std::uint64_t SimAccesses = 0;
  std::optional<SavingsSummary> Savings;
  double ArraysOptimizedFrac = 0.0;
  std::shared_ptr<const SimResponse> Resp; // first answer per key only
};

/// The bit-exact wire form of a response's plan and results (the fields
/// that must not depend on cache, merge or transport).
std::string body(const SimResponse &R) {
  std::string B = toJson(R.Plan).write();
  if (R.Original)
    B += toJson(*R.Original).write();
  if (R.Optimized)
    B += toJson(*R.Optimized).write();
  return B;
}

/// Served-vs-direct identity: the plan in wire form, the results field by
/// field (equalResults), so a lossy wire encoding cannot hide behind the
/// same encoding on both sides. \returns "" when identical.
std::string answerMismatch(const SimResponse &Served,
                           const SimResponse &Direct) {
  if (toJson(Served.Plan).write() != toJson(Direct.Plan).write())
    return "plan differs from the direct run";
  for (auto [A, B] : {std::pair(&Served.Original, &Direct.Original),
                      std::pair(&Served.Optimized, &Direct.Optimized)}) {
    if (A->has_value() != B->has_value())
      return "results present on one side only";
    std::string Field;
    if (*A && !equalResults(**A, **B, &Field))
      return "result differs from the direct run: " + Field;
  }
  return "";
}

struct Window {
  std::vector<Sample> Samples;
  std::uint64_t Sent = 0, Failed = 0, Overloaded = 0;
  double WallS = 0.0;
};

/// Shared state of one window's clients.
struct ClientPool {
  const Mix *Seq = nullptr;
  unsigned Port = 0;
  double Seconds = 0.0;
  SpanLog *Spans = nullptr;
  Clock::time_point Start;
  std::atomic<std::size_t> Next{0};
  std::atomic<std::size_t> Answered{0};
  std::mutex Mu;
  std::unordered_set<std::string> SeenKeys; // guarded by Mu
};

void runClient(ClientPool &Pool, Window &W) {
  std::string Err;
  int Fd = connectTcp("127.0.0.1", Pool.Port, &Err);
  if (Fd < 0) {
    ++W.Failed;
    std::fprintf(stderr, "client: %s\n", Err.c_str());
    return;
  }
  LineReader Reader(Fd);
  SpanLog &Spans = *Pool.Spans;
  for (bool FirstRequest = true;; FirstRequest = false) {
    if (!FirstRequest)
      std::this_thread::sleep_for(ThinkTime);
    if (secondsSince(Pool.Start) >= Pool.Seconds &&
        Pool.Answered.load() >= MinAnswered)
      break;
    std::size_t I = Pool.Next.fetch_add(1);
    if (I >= Pool.Seq->Seq.size())
      break;
    const SimRequest R = Pool.Seq->request(I);
    Sample S;
    S.Index = I;
    SpanLog::Scope Req(Spans, "request", "api", 0, I + 1);
    {
      SpanLog::Scope K(Spans, "requestKey", "api", Req.id(), I + 1);
      S.Key = requestKey(R).str();
      S.KeyUs = K.end() * 1e6;
    }
    std::string Line;
    {
      SpanLog::Scope E(Spans, "writeRequestLine", "api", Req.id(), I + 1);
      Line = writeRequestLine(R);
      S.EncodeUs = E.end() * 1e6;
    }
    ++W.Sent;
    SimResponse Resp;
    bool Answered = false;
    for (;;) {
      SpanLog::Scope Tcp(Spans, "tcp", "api", Req.id(), I + 1);
      std::string Reply;
      if (!sendAll(Fd, Line) || !Reader.readLine(&Reply)) {
        std::fprintf(stderr, "client: connection lost on %s\n", R.Id.c_str());
        break;
      }
      double Rtt = Tcp.end();
      SpanLog::Scope D(Spans, "responseFromJson", "api", Req.id(), I + 1);
      std::optional<JsonValue> V = parseJson(Reply, &Err);
      bool Parsed = V && responseFromJson(*V, &Resp, &Err);
      S.DecodeUs = D.end() * 1e6;
      if (!Parsed || Resp.Id != R.Id) {
        std::fprintf(stderr, "client: bad answer to %s: %s\n", R.Id.c_str(),
                     Err.c_str());
        break;
      }
      if (Resp.Status == ResponseStatus::Overloaded) {
        ++W.Overloaded;
        continue; // closed loop: retry the same request
      }
      S.RttMs = Rtt * 1e3;
      Answered = Resp.ok();
      if (!Answered)
        std::fprintf(stderr, "client: %s answered with an error: %s\n",
                     R.Id.c_str(), Resp.ErrorText.c_str());
      break;
    }
    if (!Answered) {
      ++W.Failed;
      if (Resp.Id != R.Id)
        break; // the connection is unusable
      continue;
    }
    Pool.Answered.fetch_add(1);
    S.RequestMs = Req.end() * 1e3;
    S.ServerS = Resp.ServerSeconds;
    S.Hit = Resp.CacheHit;
    S.Singleflight = Resp.Singleflight;
    S.BodyHash = fnv1a(body(Resp));
    if (Resp.Original && Resp.Optimized) {
      S.SimAccesses =
          Resp.Original->TotalAccesses + Resp.Optimized->TotalAccesses;
      S.Savings = summarizeSavings(*Resp.Original, *Resp.Optimized);
    }
    S.ArraysOptimizedFrac = Resp.Plan.ArraysOptimizedFraction;
    {
      std::lock_guard<std::mutex> Lock(Pool.Mu);
      if (Pool.SeenKeys.insert(S.Key).second) {
        S.Resp = std::make_shared<const SimResponse>(std::move(Resp));
      }
    }
    W.Samples.push_back(std::move(S));
  }
  close(Fd);
}

/// Runs one timed window against a fresh daemon; \returns false when the
/// daemon could not be started.
bool runWindow(const BenchArgs &Args, const Mix &Seq,
               double Seconds, SpanLog &Spans, Window &Out, double *RssMb,
               std::string *Err) {
  Daemon D;
  if (!D.start(Args.ServeBin, Err))
    return false;
  ClientPool Pool;
  Pool.Seq = &Seq;
  Pool.Port = D.port();
  Pool.Seconds = Seconds;
  Pool.Spans = &Spans;
  std::vector<Window> PerClient(Clients);
  std::vector<std::thread> Threads;
  Pool.Start = Clock::now();
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back(runClient, std::ref(Pool), std::ref(PerClient[C]));
  for (std::thread &T : Threads)
    T.join();
  Out.WallS = secondsSince(Pool.Start);
  *RssMb = D.stop();
  for (Window &W : PerClient) {
    Out.Sent += W.Sent;
    Out.Failed += W.Failed;
    Out.Overloaded += W.Overloaded;
    for (Sample &S : W.Samples)
      Out.Samples.push_back(std::move(S));
  }
  return true;
}

/// Served-vs-direct bit identity, each distinct content key once, plus
/// repeat-vs-first identity for every other answer.
void verify(const Mix &Seq, const Window &W, Report &Rep) {
  std::unordered_map<std::string, const Sample *> First;
  for (const Sample &S : W.Samples)
    if (S.Resp)
      First[S.Key] = &S;
  for (const Sample &S : W.Samples)
    if (S.BodyHash != First.at(S.Key)->BodyHash)
      Rep.fail(formatString("serve-mix: answer to %s differs from the first "
                            "answer for its content",
                            Seq.request(S.Index).Id.c_str()));
  std::vector<const Sample *> Distinct;
  for (const auto &[Key, S] : First)
    Distinct.push_back(S);
  std::vector<std::string> Why(Distinct.size());
  {
    ThreadPool Pool(hostThreads());
    std::vector<std::future<void>> Done;
    for (std::size_t I = 0; I < Distinct.size(); ++I)
      Done.push_back(Pool.submit([&, I] {
        SimRequest R = Seq.request(Distinct[I]->Index);
        SimResponse Direct = executeRequest(R, /*Jobs=*/1);
        if (!Direct.ok())
          Why[I] = "direct run failed: " + Direct.ErrorText;
        else
          Why[I] = answerMismatch(*Distinct[I]->Resp, Direct);
      }));
    for (auto &F : Done)
      F.get();
  }
  for (std::size_t I = 0; I < Distinct.size(); ++I)
    if (!Why[I].empty())
      Rep.fail(formatString("serve-mix: %s: %s",
                            Seq.request(Distinct[I]->Index).Id.c_str(),
                            Why[I].c_str()));
  Rep.line(formatString("serve-mix: verified %zu distinct answers against "
                        "direct runs and %zu answers against their first",
                        Distinct.size(), W.Samples.size()));
}

/// Mean savings over the simulate templates (one answer each), so the
/// figure does not depend on how often the seed drew each template.
SavingsSummary templateSavings(const Mix &Seq,
                               const Window &W,
                               std::vector<const SimResult *> *Results) {
  std::map<unsigned, const Sample *> ByTemplate;
  for (const Sample &S : W.Samples)
    if (S.Resp && S.Savings)
      ByTemplate.emplace(Seq.Distinct[Seq.Seq[S.Index]].Template, &S);
  std::vector<SavingsSummary> All;
  for (const auto &[T, S] : ByTemplate) {
    All.push_back(*S->Savings);
    Results->push_back(&*S->Resp->Original);
    Results->push_back(&*S->Resp->Optimized);
  }
  return averageSavings(All);
}

} // namespace

void perfbench::runServeMix(const BenchArgs &Args, SpanLog &Spans,
                            Report &Rep, LayerValues &L) {
  Rep.line(formatString("serve-mix: %u closed-loop clients (%lld ms think "
                        "time), offchip-serve --jobs %u, %.0f%% new content, "
                        ">= %zu requests",
                        Clients, static_cast<long long>(ThinkTime.count()),
                        DaemonJobs, NewShare * 100.0, MinAnswered));
  if (hostThreads() < Clients + DaemonJobs)
    std::fprintf(stderr,
                 "warning: %u hardware threads for %u clients plus %u "
                 "daemon workers; latencies include CPU contention\n",
                 hostThreads(), Clients, DaemonJobs);
  Mix Seq = makeMix(Args.Seed, 100000);

  // Set-up: daemon start until listening. Only the first start records a
  // span.
  SpanLog Off(false);
  std::vector<double> Setup;
  std::string Err;
  for (unsigned I = 0; I < SetupRepeats; ++I) {
    SpanLog::Scope S(I == 0 ? Spans : Off, "daemonStart", "api");
    Daemon D;
    if (!D.start(Args.ServeBin, &Err)) {
      Rep.attempted();
      Rep.fail("serve-mix: " + Err);
      return;
    }
    Setup.push_back(S.end());
  }

  Window W;
  double RssMb = 0.0;
  auto Measure = [&](double Seconds, SpanLog &Log) {
    W = Window();
    if (!runWindow(Args, Seq, Seconds, Log, W, &RssMb, &Err)) {
      Rep.attempted();
      Rep.fail("serve-mix: " + Err);
      return false;
    }
    Rep.attempted(W.Sent);
    for (std::uint64_t I = 0; I < W.Failed; ++I)
      Rep.fail("serve-mix: request failed or never answered");
    verify(Seq, W, Rep);
    return true;
  };
  // The tracing overhead compares the median client time per request with
  // and without spans, so the think time between requests does not dilute
  // it; each side's figure is the median over its windows.
  std::vector<double> UntracedMs, TracedMs;
  if (Args.Trace) {
    SpanLog Discarded(true);
    for (SpanLog *Log : {&Off, &Discarded, &Off, &Spans}) {
      if (!Measure(Args.Seconds / 4, *Log))
        return;
      std::vector<double> RequestMs;
      for (const Sample &S : W.Samples)
        RequestMs.push_back(S.RequestMs);
      (Log->enabled() ? TracedMs : UntracedMs).push_back(median(RequestMs));
    }
  } else if (!Measure(Args.Seconds, Spans)) {
    return;
  }

  std::vector<double> Rtt, HitRtt, MissOverhead, MissServer, Key, Enc, Dec,
      OptFrac;
  std::uint64_t Hits = 0, Merged = 0, SimAccesses = 0;
  double SimServerS = 0.0;
  for (const Sample &S : W.Samples) {
    Rtt.push_back(S.RttMs);
    Key.push_back(S.KeyUs);
    Enc.push_back(S.EncodeUs);
    Dec.push_back(S.DecodeUs);
    if (S.Resp)
      OptFrac.push_back(S.ArraysOptimizedFrac);
    if (S.Hit) {
      ++Hits;
      HitRtt.push_back(S.RttMs);
    } else if (S.Singleflight) {
      ++Merged;
    } else {
      MissOverhead.push_back(S.RttMs - S.ServerS * 1e3);
      MissServer.push_back(S.ServerS * 1e3);
      if (S.SimAccesses) {
        SimAccesses += S.SimAccesses;
        SimServerS += S.ServerS;
      }
    }
  }
  std::size_t N = Rtt.size();
  double Rps = static_cast<double>(N) / W.WallS;
  std::vector<const SimResult *> Results;
  SavingsSummary Savings = templateSavings(Seq, W, &Results);
  Rep.line(formatString("serve-mix: %zu answered in %.2f s: %llu hits, %llu "
                        "merged, %zu computed; %llu overloaded retries",
                        N, W.WallS, static_cast<unsigned long long>(Hits),
                        static_cast<unsigned long long>(Merged),
                        MissServer.size(),
                        static_cast<unsigned long long>(W.Overloaded)));

  if (Args.Trace) {
    L["api.encode_us"] = median(Enc);
    L["api.decode_us"] = median(Dec);
    L["api.key_us"] = median(Key);
    L["api.overhead_ms_hit"] = median(HitRtt);
    L["api.overhead_ms_miss"] = median(MissOverhead);
    L["api.server_ms"] = median(MissServer);
    L["api.cache_hit_ratio"] = static_cast<double>(Hits) / N;
    L["api.singleflight_ratio"] = static_cast<double>(Merged) / N;
    L["api.overloaded_retries"] = static_cast<double>(W.Overloaded);
    L["core.arrays_optimized_frac"] = OptFrac.empty() ? 0.0 : sum(OptFrac) /
                                                              OptFrac.size();
    L["trace.overhead_pct"] =
        (median(TracedMs) / median(UntracedMs) - 1.0) * 100.0;
    addSimulatedLayers(Results, L);
    return;
  }

  std::string Count = formatString("%zu requests, %zu beyond p99", N,
                                   N - static_cast<std::size_t>(0.99 * N));
  Rep.metric("sweep_s", 1000.0 / Rps, "s", "seconds per 1000 answers");
  Rep.metric("sim_macc_per_s",
             SimServerS > 0 ? SimAccesses / SimServerS / 1e6 : 0.0, "Macc/s",
             "daemon: accesses of computed simulations per server second");
  reportSavings(Savings, "mean over the simulate templates", Rep);
  Rep.metric("serve_p50_ms", quantile(Rtt, 0.5), "ms", Count);
  Rep.metric("serve_p99_ms", quantile(Rtt, 0.99), "ms", Count);
  Rep.metric("serve_rps", Rps, "req/s", "answered requests per second");
  Rep.metric("setup_s", median(Setup), "s",
             formatString("median of %u daemon starts until listening",
                          SetupRepeats));
  Rep.metric("peak_rss_mb", RssMb, "MB", "daemon");
}
