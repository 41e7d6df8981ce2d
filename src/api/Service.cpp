//===- api/Service.cpp ----------------------------------------------------===//

#include "api/Service.h"

#include "api/ContentHash.h"
#include "api/Execute.h"

#include <future>
#include <memory>
#include <optional>
#include <utility>

using namespace offchip;

SimService::SimService(ServiceOptions Opts, Executor Exec)
    : Opts(Opts), Exec(Exec ? std::move(Exec)
                            : [](const SimRequest &R) {
                                return executeRequest(R, /*Jobs=*/1);
                              }),
      Cache(Opts.CacheCapacity), Pool(Opts.Workers) {}

SimService::~SimService() { drain(); }

namespace {

/// The client-neutral copy the cache stores; lookups re-stamp the
/// per-request fields.
SimResponse cacheEntry(const SimResponse &Resp) {
  SimResponse Entry = Resp;
  Entry.Id.clear();
  Entry.CacheHit = false;
  Entry.Key.clear();
  return Entry;
}

} // namespace

void SimService::submit(SimRequest R, DoneFn Done) {
  CacheKey Key = requestKey(R);
  // Tracing requests must actually run (the trace files are the point), so
  // they bypass the cache lookup and single-flight merging; their computed
  // result still refreshes the cache for everyone else.
  const bool Traced = !R.TracePrefix.empty();
  std::optional<SimResponse> Hit;
  bool Leader = false;
  {
    // One atomic decision under Mu: attach to an in-flight leader, answer
    // from the cache, or become the leader for this key. The nesting
    // Mu -> ResultCache's internal lock is one-directional (the cache
    // never calls back into the service), and no callback ever runs under
    // Mu.
    std::lock_guard<std::mutex> Lock(Mu);
    if (!Traced) {
      auto It = InFlight.find(Key);
      if (It != InFlight.end()) {
        // The leader invokes this waiter's Done when it finishes and
        // retires it with its own answer.
        It->second.push_back({std::move(R.Id), std::move(Done)});
        ++SingleflightHits;
        ++Admitted;
        ++Pending;
        return;
      }
      Hit = Cache.lookup(Key);
    }
    if (Hit) {
      ++Admitted;
      ++Pending;
    } else if (Queued < Opts.QueueDepth) {
      ++Admitted;
      ++Pending;
      ++Queued;
      if (!Traced)
        InFlight.emplace(Key, std::vector<Waiter>());
      Leader = true;
    } else {
      ++Rejected;
    }
  }
  if (Leader) {
    // Registered above, so identical requests attach from here on.
    Pool.submit([this, J = std::make_shared<Job>(
                           Job{std::move(R), std::move(Done), Key})] {
      execute(*J);
    });
    return;
  }
  // Both remaining answers go out on the caller's thread — a hit or an
  // admission decision never waits for a worker — but outside Mu: the
  // callback may take locks of its own, and holding Mu across it would
  // order them against every other service operation.
  if (Hit) {
    Hit->Id = std::move(R.Id);
    Hit->CacheHit = true;
    Hit->Key = Key.str();
    Done(std::move(*Hit));
    finish(1, /*FreesSlot=*/false);
    return;
  }
  SimResponse Resp;
  Resp.Id = std::move(R.Id);
  Resp.Status = ResponseStatus::Overloaded;
  Done(std::move(Resp));
}

void SimService::execute(Job &J) {
  SimResponse Resp = Exec(J.Req);
  std::optional<SimResponse> Entry;
  if (Resp.ok())
    Entry = cacheEntry(Resp);
  std::vector<Waiter> Waiters;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    // Insert before retiring the key so no request can miss both the
    // registry and the cache.
    if (Entry)
      Cache.insert(J.Key, *Entry);
    if (J.Req.TracePrefix.empty()) {
      auto It = InFlight.find(J.Key);
      Waiters = std::move(It->second);
      InFlight.erase(It);
    }
  }
  Resp.CacheHit = false;
  Resp.Key = J.Key.str();
  for (Waiter &W : Waiters) {
    SimResponse Copy = Resp;
    Copy.Id = std::move(W.Id);
    Copy.Singleflight = true;
    W.Done(std::move(Copy));
  }
  J.Done(std::move(Resp));
  finish(1 + Waiters.size(), /*FreesSlot=*/true);
}

void SimService::finish(std::size_t Answered, bool FreesSlot) {
  std::lock_guard<std::mutex> Lock(Mu);
  Pending -= Answered;
  Completed += Answered;
  if (FreesSlot)
    --Queued;
  if (Pending == 0)
    Idle.notify_all();
}

SimResponse SimService::call(SimRequest R) {
  std::promise<SimResponse> Promise;
  std::future<SimResponse> Future = Promise.get_future();
  submit(std::move(R),
         [&Promise](SimResponse Resp) { Promise.set_value(std::move(Resp)); });
  return Future.get();
}

void SimService::drain() {
  std::unique_lock<std::mutex> Lock(Mu);
  Idle.wait(Lock, [this] { return Pending == 0; });
}

SimService::Stats SimService::stats() const {
  Stats S;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    S.Admitted = Admitted;
    S.Rejected = Rejected;
    S.Completed = Completed;
    S.SingleflightHits = SingleflightHits;
  }
  S.Cache = Cache.stats();
  return S;
}
