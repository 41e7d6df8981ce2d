//===- api/Service.h - Concurrent optimize/simulate service -----*- C++ -*-===//
///
/// \file
/// The long-running heart of offchip-serve, usable without any socket: a
/// bounded admission queue in front of a worker pool, answering from the
/// content-addressed result cache on a hit and running executeRequest() on
/// a miss. Identical concurrent misses are merged (single-flight): the
/// first becomes the leader and executes, later ones attach as waiters and
/// receive the leader's result, so a stampede of equal requests costs one
/// simulation.
///
/// submit() decides on the caller's thread, in one step under the service
/// lock: attach to an in-flight leader, answer from the cache, or become
/// the leader and enqueue. So a hit never waits for a worker — it is
/// answered while every worker computes a miss. Only leaders (and traced
/// requests, which always execute) pass admission: when QueueDepth of them
/// are admitted but unanswered, submit() answers Overloaded immediately
/// instead of queueing unboundedly. Hits and attaches take no queue slot;
/// nothing admitted is ever dropped. The completion callback is invoked
/// exactly once per submit(): on the caller's thread for hits and
/// Overloaded answers, on a worker thread for executed requests and the
/// waiters attached to them.
///
/// The executor is injectable so tests can hold requests open and observe
/// backpressure/drain behaviour deterministically; production uses
/// executeRequest().
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_API_SERVICE_H
#define OFFCHIP_API_SERVICE_H

#include "api/ResultCache.h"
#include "support/ThreadPool.h"

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace offchip {

struct ServiceOptions {
  /// Simulation worker threads (0 = one per hardware thread).
  unsigned Workers = 0;
  /// Maximum requests queued for or running on a worker before submit()
  /// answers Overloaded. Cache hits and single-flight attaches take no
  /// slot.
  std::size_t QueueDepth = 64;
  /// Result cache entries (0 disables caching).
  std::size_t CacheCapacity = 256;
};

class SimService {
public:
  /// Invoked exactly once with the answer to a submitted request.
  using DoneFn = std::function<void(SimResponse)>;
  /// Computes the answer for one cache-missing request.
  using Executor = std::function<SimResponse(const SimRequest &)>;

  /// \p Exec overrides the production executor (tests); nullptr selects
  /// executeRequest().
  explicit SimService(ServiceOptions Opts = {}, Executor Exec = nullptr);

  /// Drains every admitted request before returning.
  ~SimService();

  SimService(const SimService &) = delete;
  SimService &operator=(const SimService &) = delete;

  /// Answers \p R from the cache, attaches it to an identical in-flight
  /// request, admits it to the worker queue, or answers Overloaded when
  /// the queue is full. \p Done runs synchronously on the caller's thread
  /// for cache hits and Overloaded answers, and on a worker thread for
  /// executed and attached requests; it must not block on this service.
  void submit(SimRequest R, DoneFn Done);

  /// Synchronous convenience: submit + wait for the answer.
  SimResponse call(SimRequest R);

  /// Blocks until every admitted request has been answered.
  void drain();

  struct Stats {
    std::uint64_t Admitted = 0;
    std::uint64_t Rejected = 0;
    std::uint64_t Completed = 0;
    /// Requests answered by attaching to an identical in-flight request
    /// instead of executing (single-flight merging).
    std::uint64_t SingleflightHits = 0;
    ResultCache::Stats Cache;
  };
  Stats stats() const;

  unsigned workers() const { return Pool.threadCount(); }

private:
  /// One admitted request on its way to a worker, with the key submit()
  /// computed for it.
  struct Job {
    SimRequest Req;
    DoneFn Done;
    CacheKey Key;
  };
  void execute(Job &J);
  /// Retires \p Answered answered requests; \p FreesSlot when one of them
  /// held a queue slot.
  void finish(std::size_t Answered, bool FreesSlot);

  const ServiceOptions Opts;
  Executor Exec;
  ResultCache Cache;

  mutable std::mutex Mu;
  std::condition_variable Idle;
  std::size_t Pending = 0; // admitted, not yet answered
  std::size_t Queued = 0;  // admitted to the workers, not yet answered
  std::uint64_t Admitted = 0, Rejected = 0, Completed = 0;
  std::uint64_t SingleflightHits = 0;
  /// Single-flight registry: content key -> waiters for the in-flight
  /// execution of that key. An entry exists exactly while the key's leader
  /// is queued or executing; attachers park their (Id, Done) here and the
  /// leader answers them when it finishes. Guarded by Mu; the callbacks
  /// are always invoked outside it.
  struct Waiter {
    std::string Id;
    DoneFn Done;
  };
  std::unordered_map<CacheKey, std::vector<Waiter>, CacheKeyHash> InFlight;

  ThreadPool Pool; // last member: workers must die before the state above
};

} // namespace offchip

#endif // OFFCHIP_API_SERVICE_H
