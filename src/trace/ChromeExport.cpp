//===- trace/ChromeExport.cpp ---------------------------------------------===//

#include "trace/ChromeExport.h"

#include "support/Format.h"

#include <fstream>

using namespace offchip;

namespace {

const char *kindName(TraceKind K) {
  switch (K) {
  case TraceKind::L1Hit:
    return "l1-hit";
  case TraceKind::L1Miss:
    return "l1-miss";
  case TraceKind::L2Hit:
    return "l2-hit";
  case TraceKind::L2Miss:
    return "l2-miss";
  case TraceKind::DirLookup:
    return "dir-lookup";
  case TraceKind::RemoteL2Hit:
    return "remote-l2";
  case TraceKind::NocHop:
    return "hop";
  case TraceKind::MCEnqueue:
    return "mc-queue";
  case TraceKind::BankService:
    return "bank";
  case TraceKind::L1Fill:
    return "l1-fill";
  case TraceKind::Complete:
    return "access";
  case TraceKind::BurstCoalesce:
    return "burst";
  case TraceKind::Invalidate:
    return "invalidate";
  case TraceKind::Downgrade:
    return "downgrade";
  case TraceKind::InvAck:
    return "inv-ack";
  }
  return "?";
}

/// Direction suffix of a directed link id (Network's node * 4 + dir).
const char *dirName(unsigned Dir) {
  static const char *Names[4] = {"E", "W", "S", "N"};
  return Names[Dir & 3];
}

/// Bytes rendered between two writes when streaming to a file.
constexpr std::size_t ChunkBytes = 1 << 20;

/// Renders \p D into \p Out. With a \p File, every ChunkBytes of events
/// are written to it and dropped from \p Out, so writing a trace holds one
/// chunk in memory rather than the whole text; the last partial chunk is
/// left in \p Out.
void renderTo(const TraceData &D, std::string &Out, std::ostream *File) {
  Out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";

  // Track metadata: names for the three pids and every tid that can appear.
  auto Meta = [&Out](const char *What, unsigned Pid, long long Tid,
                     const std::string &Name) {
    Out += formatString("{\"ph\":\"M\",\"name\":\"%s\",\"pid\":%u", What, Pid);
    if (Tid >= 0)
      Out += formatString(",\"tid\":%lld", Tid);
    Out += ",\"args\":{\"name\":\"" + Name + "\"}},\n";
  };
  Meta("process_name", 0, -1, "cores");
  Meta("process_name", 1, -1, "noc");
  Meta("process_name", 2, -1, "dram");
  for (unsigned N = 0; N < D.NumNodes; ++N) {
    unsigned X = D.MeshX ? N % D.MeshX : N;
    unsigned Y = D.MeshX ? N / D.MeshX : 0;
    Meta("thread_name", 0, N, formatString("node(%u,%u)", X, Y));
  }
  for (unsigned L = 0; L < D.NumNodes * 4; ++L) {
    unsigned N = L / 4;
    unsigned X = D.MeshX ? N % D.MeshX : N;
    unsigned Y = D.MeshX ? N / D.MeshX : 0;
    Meta("thread_name", 1, L,
         formatString("link(%u,%u)%s", X, Y, dirName(L % 4)));
  }
  for (unsigned M = 0; M < D.NumMCs; ++M)
    Meta("thread_name", 2, M,
         formatString("mc%u@node%u",
                      M, M < D.MCNodes.size() ? D.MCNodes[M] : 0));

  // Every metadata line above ends in ",\n"; with no events that comma
  // would dangle before the closing bracket.
  if (D.Events.empty() && Out.size() >= 2 &&
      Out.compare(Out.size() - 2, 2, ",\n") == 0)
    Out.replace(Out.size() - 2, 2, "\n");

  const std::uint64_t ThreadMask = (1ull << D.ThreadShift) - 1;
  for (std::size_t I = 0; I < D.Events.size(); ++I) {
    const TraceEvent &E = D.Events[I];
    unsigned Pid = 0;
    unsigned long long Tid = E.Node;
    switch (E.Kind) {
    case TraceKind::NocHop:
      Pid = 1;
      Tid = E.Aux;
      break;
    case TraceKind::MCEnqueue:
      Pid = 2;
      Tid = E.Aux;
      break;
    case TraceKind::BankService:
      Pid = 2;
      Tid = E.Aux >> 16;
      break;
    case TraceKind::BurstCoalesce:
      Pid = 2;
      Tid = E.Aux >> 8;
      break;
    default:
      break;
    }
    unsigned long long Thread = E.Key & ThreadMask;
    // Complete ("X") events: zero-duration steps still render as instant-
    // like slivers; keeping one phase keeps the export simple and sortable.
    Out += formatString(
        "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%llu,\"dur\":%llu,"
        "\"pid\":%u,\"tid\":%llu,\"args\":{\"thread\":%llu,\"node\":%u,"
        "\"addr\":%llu,\"aux\":%llu}}",
        kindName(E.Kind), (unsigned long long)E.Start,
        (unsigned long long)E.Dur, Pid, Tid, Thread, E.Node,
        (unsigned long long)E.Addr, (unsigned long long)E.Aux);
    Out += I + 1 < D.Events.size() ? ",\n" : "\n";
    if (File && Out.size() >= ChunkBytes) {
      File->write(Out.data(), static_cast<std::streamsize>(Out.size()));
      Out.clear();
    }
  }
  Out += formatString("],\"otherData\":{\"emitted_events\":%llu,"
                      "\"dropped_events\":%llu,\"sample_cycles\":%u}}\n",
                      (unsigned long long)D.EmittedEvents,
                      (unsigned long long)D.DroppedEvents,
                      D.Config.SampleCycles);
}

} // namespace

std::string offchip::renderChromeTrace(const TraceData &D) {
  std::string Out;
  Out.reserve(D.Events.size() * 96 + 4096);
  renderTo(D, Out, nullptr);
  return Out;
}

bool offchip::writeChromeTrace(const TraceData &D, const std::string &Path) {
  std::ofstream File(Path, std::ios::trunc | std::ios::binary);
  if (!File)
    return false;
  std::string Out;
  Out.reserve(ChunkBytes + 4096);
  renderTo(D, Out, &File);
  File.write(Out.data(), static_cast<std::streamsize>(Out.size()));
  return static_cast<bool>(File);
}
