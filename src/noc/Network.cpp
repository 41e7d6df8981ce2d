//===- noc/Network.cpp ----------------------------------------------------===//

#include "noc/Network.h"

#include "trace/TraceSink.h"

#include <algorithm>
#include <chrono>

using namespace offchip;

Network::Network(const Mesh &M, NocConfig Config)
    : Topology(M), Config(Config), XDiv(M.sizeX()),
      FlitDiv(Config.LinkBytes),
      Links(static_cast<std::size_t>(M.numNodes()) * 4) {}

std::uint64_t Network::LinkState::reserve(std::uint64_t From,
                                          unsigned Flits,
                                          std::uint64_t Floor) {
  // Reclaim reservations that ended before the engine's time floor: no
  // future injection can land there. Pruning only advances Head; the dead
  // prefix is erased in bulk once it dominates the buffer, keeping the
  // amortized cost O(1) without deque's segmented storage.
  std::size_t N = Reserved.size();
  while (Head < N && Reserved[Head].End <= Floor)
    ++Head;
  if (Head == N) {
    Reserved.clear();
    Head = 0;
    N = 0;
  } else if (Head >= 64 && Head * 2 >= N) {
    Reserved.erase(Reserved.begin(),
                   Reserved.begin() + static_cast<std::ptrdiff_t>(Head));
    N -= Head;
    Head = 0;
  }

  // Fast path: the message lands at or after the last reservation's start,
  // so it queues behind everything — an append (or back-merge). Sorted
  // non-overlapping intervals have monotone Ends, so the max over all
  // Ends with Start <= From is just the last End.
  if (N == Head) {
    Reserved.push_back({From, From + Flits});
    return From;
  }
  Interval &Back = Reserved.back();
  if (From >= Back.Start) {
    std::uint64_t Start = std::max(From, Back.End);
    if (Start == Back.End)
      Back.End += Flits;
    else
      Reserved.push_back({Start, Start + Flits});
    return Start;
  }

  // FIFO by arrival: the message must queue behind every reservation whose
  // transmission starts at or before its own arrival (those messages are
  // already in the router), but may claim idle time ahead of reservations
  // that only start in the future (e.g. a response still waiting on DRAM) —
  // that keeps the link work-conserving without clairvoyant reordering.
  std::uint64_t Start = From;
  std::size_t Pos = Head;
  while (Pos < N && Reserved[Pos].Start <= From) {
    Start = std::max(Start, Reserved[Pos].End);
    ++Pos;
  }
  for (; Pos < N; ++Pos) {
    const Interval &I = Reserved[Pos];
    if (Start + Flits <= I.Start)
      break; // fits in the gap before I
    Start = std::max(Start, I.End);
  }
  Reserved.insert(Reserved.begin() + static_cast<std::ptrdiff_t>(Pos),
                  {Start, Start + Flits});
  // Merge with neighbors when exactly adjacent to keep the list short.
  if (Pos + 1 < Reserved.size() &&
      Reserved[Pos].End == Reserved[Pos + 1].Start) {
    Reserved[Pos].End = Reserved[Pos + 1].End;
    Reserved.erase(Reserved.begin() + static_cast<std::ptrdiff_t>(Pos) + 1);
  }
  if (Pos > Head && Reserved[Pos - 1].End == Reserved[Pos].Start) {
    Reserved[Pos - 1].End = Reserved[Pos].End;
    Reserved.erase(Reserved.begin() + static_cast<std::ptrdiff_t>(Pos));
  }
  return Start;
}

MessageResult Network::send(unsigned Src, unsigned Dst, unsigned Bytes,
                            std::uint64_t Time, MsgClass Cls) {
  if (Src == Dst)
    return {Time, 0, 0};
  using Clock = std::chrono::steady_clock;
  Clock::time_point T0;
  if (TimeCalls)
    T0 = Clock::now();

  // Iterative XY walk. Along each leg the direction — and therefore both
  // the node step and the link-index offset — is constant, so each hop is
  // one reservation at Links[Node * 4 + Dir] with no route materialization.
  // Direction encoding: 0 east, 1 west, 2 south, 3 north; X-adjacent node
  // ids differ by 1, Y-adjacent ids by the mesh width (row-major ids).
  Coord A{static_cast<unsigned>(XDiv.mod(Src)),
          static_cast<unsigned>(XDiv.div(Src))};
  Coord B{static_cast<unsigned>(XDiv.mod(Dst)),
          static_cast<unsigned>(XDiv.div(Dst))};
  unsigned Flits = flitsFor(Bytes);
  std::uint64_t Cur = Time;
  unsigned Node = Src;
  unsigned Hops = 0;

  if (B.X != A.X) {
    bool East = B.X > A.X;
    unsigned Dir = East ? 0u : 1u;
    int Step = East ? 1 : -1;
    unsigned N = East ? B.X - A.X : A.X - B.X;
    for (unsigned I = 0; I < N; ++I) {
      std::uint64_t Booked = Links[Node * 4 + Dir].reserve(Cur, Flits, Floor);
      if (Sink)
        Sink->emit(TraceKind::NocHop, Booked, Flits, 0, Node * 4 + Dir);
      Cur = Booked + Config.PerHopCycles;
      Node = static_cast<unsigned>(static_cast<int>(Node) + Step);
    }
    Hops += N;
  }
  if (B.Y != A.Y) {
    bool South = B.Y > A.Y;
    unsigned Dir = South ? 2u : 3u;
    int Step = South ? static_cast<int>(Topology.sizeX())
                     : -static_cast<int>(Topology.sizeX());
    unsigned N = South ? B.Y - A.Y : A.Y - B.Y;
    for (unsigned I = 0; I < N; ++I) {
      std::uint64_t Booked = Links[Node * 4 + Dir].reserve(Cur, Flits, Floor);
      if (Sink)
        Sink->emit(TraceKind::NocHop, Booked, Flits, 0, Node * 4 + Dir);
      Cur = Booked + Config.PerHopCycles;
      Node = static_cast<unsigned>(static_cast<int>(Node) + Step);
    }
    Hops += N;
  }
  LinkBusyCycles += static_cast<std::uint64_t>(Hops) * Flits;

  // Tail flit trails the head by Flits - 1 cycles once pipelined.
  std::uint64_t Arrival = Cur + (Flits - 1);
  ++Messages;
  ++ClassCount[static_cast<unsigned>(Cls)];
  if (TimeCalls) {
    TimedSeconds += std::chrono::duration<double>(Clock::now() - T0).count();
    ++TimedCalls;
  }
  return {Arrival, Arrival - Time, Hops};
}

MessageResult Network::sendIdeal(unsigned Src, unsigned Dst, unsigned Bytes,
                                 std::uint64_t Time) const {
  if (Src == Dst)
    return {Time, 0, 0};
  unsigned Hops = Topology.manhattan(Src, Dst);
  unsigned Flits = flitsFor(Bytes);
  std::uint64_t Arrival =
      Time + static_cast<std::uint64_t>(Hops) * Config.PerHopCycles +
      (Flits - 1);
  return {Arrival, Arrival - Time, Hops};
}

void Network::reset() {
  for (LinkState &L : Links)
    L.clear();
  Messages = 0;
  LinkBusyCycles = 0;
  ClassCount.fill(0);
  TimedSeconds = 0.0;
  TimedCalls = 0;
}

bool Network::checkCalendars(std::string *Why) const {
  auto Fail = [Why](std::size_t Link, std::size_t Pos, const char *What) {
    if (Why)
      *Why = "link " + std::to_string(Link) + " reservation " +
             std::to_string(Pos) + ": " + What;
    return false;
  };
  for (std::size_t L = 0; L < Links.size(); ++L) {
    const LinkState &S = Links[L];
    if (S.Head > S.Reserved.size())
      return Fail(L, S.Head, "head past the end of the calendar");
    for (std::size_t I = S.Head; I < S.Reserved.size(); ++I) {
      const LinkState::Interval &Iv = S.Reserved[I];
      if (Iv.Start >= Iv.End)
        return Fail(L, I, "empty or inverted interval");
      if (I > S.Head && S.Reserved[I - 1].End > Iv.Start)
        return Fail(L, I, "overlaps the previous reservation");
    }
  }
  return true;
}
