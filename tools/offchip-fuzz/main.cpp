//===- tools/offchip-fuzz/main.cpp - differential simulator fuzzer --------===//
///
/// Seeded differential fuzzing of the simulator. Each trial draws a random
/// valid machine configuration and a random affine program, then
/// cross-checks the full SimResult of a plain run for exact equality
/// against
///
///   - the same run with tracing on (a small per-node ring, no file
///     export): trace emission lives inside Machine::access and must never
///     move a result bit,
///   - the same run with the Pow2Divider generic (div/mod) decode paths
///     forced instead of the fast (shift/mask) ones,
///
/// with the runtime invariant checker (MachineConfig::CheckInvariants)
/// armed on every run. A pending-repro file is written *before* each trial
/// and deleted on success, so even a crash or an invariant abort leaves the
/// offending configuration and program on disk. Result mismatches are
/// additionally shrunk to a minimal failing spec and printed as a
/// ready-to-paste GTest regression test.
///
/// Usage:
///   offchip-fuzz [--runs N] [--seed S] [--repro-out PATH] [--verbose]
///
//===----------------------------------------------------------------------===//

#include "affine/ProgramText.h"
#include "harness/Experiment.h"
#include "sim/Engine.h"
#include "support/Options.h"
#include "support/Pow2.h"
#include "support/Random.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

using namespace offchip;

namespace {

//===----------------------------------------------------------------------===//
// Trial specification: everything needed to regenerate one trial exactly.
// Shrinking mutates this spec and re-renders, so the minimal repro is a
// spec, not an opaque RNG tape.
//===----------------------------------------------------------------------===//

/// One affine reference in the generated nest body. The data array is
/// square (Dim x Dim) and every nest iterates [0, Dim-1)^2, so subscripts
/// of the form ik or ik+1 always stay in bounds.
enum class RefKind {
  ReadRowMajor,    // read  a [ i0, i1 ]
  ReadColMajor,    // read  a [ i1, i0 ]
  ReadShifted,     // read  a [ i0+1, i1 ]
  WriteRowMajor,   // write a [ i0, i1 ]
  WriteShifted,    // write a [ i0, i1+1 ]
  GatherRead,      // gather-read a via x [ i0, i1 ]
  GatherWrite,     // gather-write a via x [ i0, i1 ]
};

struct NestSpec {
  std::vector<RefKind> Refs;
  unsigned ParallelDim = 0; // 0 or 1
  unsigned Repeat = 1;
};

struct TrialSpec {
  MachineConfig Config;
  /// Side of the square data array, in elements.
  unsigned Dim = 32;
  unsigned ElemBytes = 8;
  /// Index-array generator window for gathers; 0 = random generator.
  unsigned NearbyWindow = 16;
  std::uint64_t IndexSeed = 1;
  std::vector<NestSpec> Nests;
  /// Run the layout pass and simulate the optimized plan instead of the
  /// original row-major one.
  bool OptimizedLayout = false;

  bool usesGather() const {
    for (const NestSpec &N : Nests)
      for (RefKind R : N.Refs)
        if (R == RefKind::GatherRead || R == RefKind::GatherWrite)
          return true;
    return false;
  }
};

const char *refLine(RefKind K) {
  switch (K) {
  case RefKind::ReadRowMajor:
    return "  read  a [ i0, i1 ]";
  case RefKind::ReadColMajor:
    return "  read  a [ i1, i0 ]";
  case RefKind::ReadShifted:
    return "  read  a [ i0+1, i1 ]";
  case RefKind::WriteRowMajor:
    return "  write a [ i0, i1 ]";
  case RefKind::WriteShifted:
    return "  write a [ i0, i1+1 ]";
  case RefKind::GatherRead:
    return "  gather-read a via x [ i0, i1 ]";
  case RefKind::GatherWrite:
    return "  gather-write a via x [ i0, i1 ]";
  }
  return "";
}

std::string renderProgram(const TrialSpec &S) {
  std::string Out = "program fuzz\n";
  Out += "array a dims " + std::to_string(S.Dim) + " " +
         std::to_string(S.Dim) + " elem " + std::to_string(S.ElemBytes) +
         "\n";
  if (S.usesGather()) {
    Out += "array x dims " + std::to_string(S.Dim) + " " +
           std::to_string(S.Dim) + " elem 8\n";
    if (S.NearbyWindow != 0)
      Out += "index x nearby " + std::to_string(S.NearbyWindow) + " " +
             std::to_string(S.IndexSeed) + " for a\n";
    else
      Out += "index x random " + std::to_string(S.IndexSeed) + " for a\n";
  }
  std::string Hi = std::to_string(S.Dim - 1);
  for (std::size_t I = 0; I < S.Nests.size(); ++I) {
    const NestSpec &N = S.Nests[I];
    Out += "nest n" + std::to_string(I) + " bounds 0:" + Hi + " 0:" + Hi +
           " parallel " + std::to_string(N.ParallelDim);
    if (N.Repeat > 1)
      Out += " repeat " + std::to_string(N.Repeat);
    Out += "\n";
    for (RefKind R : N.Refs)
      Out += std::string(refLine(R)) + "\n";
    Out += "end\n";
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Random generation
//===----------------------------------------------------------------------===//

template <typename T, std::size_t N>
T pick(SplitMix64 &R, const T (&Choices)[N]) {
  return Choices[R.nextBelow(N)];
}

/// --coherence: every trial draws MSI or MESI (and drops the incompatible
/// shared-L2/burst axes), concentrating the whole budget on protocol paths.
bool ForceCoherence = false;

MachineConfig randomConfig(SplitMix64 &R) {
  MachineConfig C = MachineConfig::scaledDefault();
  // Meshes beyond powers of two force the generic division path through the
  // shared-L2 home-bank and route decodes.
  static const unsigned MeshXs[] = {2, 3, 4, 5, 6, 8};
  static const unsigned MeshYs[] = {2, 3, 4, 6, 8};
  do {
    C.MeshX = pick(R, MeshXs);
    C.MeshY = pick(R, MeshYs);
  } while (C.MeshX * C.MeshY > 64);

  static const unsigned MCs[] = {2, 4, 4, 6, 8};
  C.NumMCs = pick(R, MCs);
  switch (R.nextBelow(4)) {
  case 0:
    C.Placement = MCPlacementKind::Corners;
    break;
  case 1:
    C.Placement = MCPlacementKind::EdgeMidpoints;
    break;
  case 2:
    C.Placement = MCPlacementKind::TopBottomSpread;
    break;
  default: {
    // Explicit: a random distinct node set, exercising the arbitrary
    // placements tools/placement-opt searches over. Falls back to Corners
    // when the mesh is too small to seat every MC on its own node.
    unsigned Nodes = C.MeshX * C.MeshY;
    if (C.NumMCs > Nodes) {
      C.Placement = MCPlacementKind::Corners;
      break;
    }
    C.Placement = MCPlacementKind::Explicit;
    std::vector<unsigned> All(Nodes);
    for (unsigned I = 0; I < Nodes; ++I)
      All[I] = I;
    // Partial Fisher-Yates: the first NumMCs entries are a uniform draw of
    // distinct nodes, in a seed-reproducible order.
    for (unsigned I = 0; I < C.NumMCs; ++I)
      std::swap(All[I], All[I + static_cast<unsigned>(
                                    R.nextBelow(Nodes - I))]);
    C.MCNodes.assign(All.begin(), All.begin() + C.NumMCs);
    break;
  }
  }

  static const unsigned L1Lines[] = {16, 32, 64};
  static const unsigned L1WaysC[] = {1, 2, 4};
  static const unsigned L1Sets[] = {4, 8, 16};
  C.L1LineBytes = pick(R, L1Lines);
  C.L1Ways = pick(R, L1WaysC);
  C.L1SizeBytes = static_cast<std::uint64_t>(C.L1LineBytes) * C.L1Ways *
                  pick(R, L1Sets);
  // A x3 multiplier yields a non-power-of-two L2 line (and interleave
  // unit), steering every address decode through the generic divider.
  static const unsigned L2Mult[] = {1, 2, 3, 4};
  static const unsigned L2WaysC[] = {2, 4};
  static const unsigned L2Sets[] = {8, 16, 32};
  C.L2LineBytes = C.L1LineBytes * pick(R, L2Mult);
  C.L2Ways = pick(R, L2WaysC);
  C.L2SizeBytes = static_cast<std::uint64_t>(C.L2LineBytes) * C.L2Ways *
                  pick(R, L2Sets);
  C.SharedL2 = R.nextBelow(2) == 0;

  if (R.nextBelow(2) == 0) {
    C.Granularity = InterleaveGranularity::Page;
    static const unsigned Pages[] = {256, 512, 1024};
    C.PageBytes = pick(R, Pages);
    switch (R.nextBelow(3)) {
    case 0:
      C.PagePolicy = PageAllocPolicy::InterleavedRoundRobin;
      break;
    case 1:
      C.PagePolicy = PageAllocPolicy::FirstTouch;
      break;
    default:
      C.PagePolicy = PageAllocPolicy::CompilerGuided;
      break;
    }
  }
  C.BytesPerMC = 1ull << 22;

  static const unsigned Links[] = {8, 16, 24};
  C.Noc.LinkBytes = pick(R, Links);
  static const unsigned Banks[] = {1, 2, 3, 4};
  static const unsigned Rows[] = {512, 768, 1024};
  C.Dram.Banks = pick(R, Banks);
  C.Dram.RowBufferBytes = pick(R, Rows);

  static const unsigned Gaps[] = {0, 4, 16};
  C.ComputeGapCycles = pick(R, Gaps);
  C.ThreadsPerCore = 1 + static_cast<unsigned>(R.nextBelow(2));
  C.OptimalScheme = R.nextBelow(4) == 0;

  // Burst coalescing reorders nothing but changes timing; it must hold the
  // line-conservation invariant (checkBurstConservation) on every draw.
  C.Burst.Enabled = R.nextBelow(2) == 0;
  static const unsigned Windows[] = {8, 32, 256};
  static const unsigned MaxLines[] = {2, 4, 8};
  C.Burst.WindowAccesses = pick(R, Windows);
  C.Burst.MaxLines = pick(R, MaxLines);

  // Coherence: MSI/MESI protocol traffic over the private-L2 machine, with
  // an optional bounded (sparse) directory. Incompatible with the shared L2
  // and with burst coalescing (validate rejects both combinations), so
  // those draws force the protocol off instead of skewing the rejection
  // sampling below.
  switch (ForceCoherence ? 1 + R.nextBelow(2) : R.nextBelow(4)) {
  case 1:
    C.Coherence.Protocol = MachineConfig::CoherenceProtocol::MSI;
    break;
  case 2:
    C.Coherence.Protocol = MachineConfig::CoherenceProtocol::MESI;
    break;
  default:
    break;
  }
  C.Coherence.SparseDirectory = R.nextBelow(2) == 0;
  C.Coherence.SparseEntries = 16u << R.nextBelow(6);
  if (ForceCoherence) {
    C.SharedL2 = false;
    C.Burst.Enabled = false;
  }
  if (C.SharedL2 || C.Burst.Enabled)
    C.Coherence.Protocol = MachineConfig::CoherenceProtocol::None;

  C.CheckInvariants = true;
  return C;
}

TrialSpec randomSpec(SplitMix64 &R) {
  TrialSpec S;
  // Valid configurations are dense in the generator's space; rejection
  // sampling through validate() keeps the generator honest about the
  // validator instead of duplicating its rules.
  do {
    S.Config = randomConfig(R);
  } while (!S.Config.validate().empty());

  static const unsigned Dims[] = {24, 32, 40, 48};
  S.Dim = pick(R, Dims);
  S.ElemBytes = R.nextBelow(2) == 0 ? 8 : 4;
  S.NearbyWindow = R.nextBelow(3) == 0 ? 0 : 16;
  S.IndexSeed = 1 + R.nextBelow(1000);
  S.OptimizedLayout = R.nextBelow(2) == 0;

  unsigned NumNests = 1 + static_cast<unsigned>(R.nextBelow(2));
  for (unsigned N = 0; N < NumNests; ++N) {
    NestSpec Nest;
    Nest.ParallelDim = static_cast<unsigned>(R.nextBelow(2));
    Nest.Repeat = 1 + static_cast<unsigned>(R.nextBelow(2));
    unsigned NumRefs = 1 + static_cast<unsigned>(R.nextBelow(3));
    static const RefKind Kinds[] = {
        RefKind::ReadRowMajor, RefKind::ReadColMajor, RefKind::ReadShifted,
        RefKind::WriteRowMajor, RefKind::WriteShifted, RefKind::GatherRead,
        RefKind::GatherWrite};
    for (unsigned I = 0; I < NumRefs; ++I)
      Nest.Refs.push_back(pick(R, Kinds));
    S.Nests.push_back(std::move(Nest));
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Running one trial
//===----------------------------------------------------------------------===//

/// Renders the spec's config as C++ statements against a variable `C`,
/// listing every field the generator can move (defaults included, so the
/// snippet is self-contained).
std::string renderConfigCode(const MachineConfig &C) {
  auto U = [](std::uint64_t V) { return std::to_string(V); };
  std::string Out;
  Out += "  MachineConfig C = MachineConfig::scaledDefault();\n";
  Out += "  C.MeshX = " + U(C.MeshX) + ";\n";
  Out += "  C.MeshY = " + U(C.MeshY) + ";\n";
  Out += "  C.NumMCs = " + U(C.NumMCs) + ";\n";
  Out += std::string("  C.Placement = MCPlacementKind::") +
         (C.Placement == MCPlacementKind::Corners         ? "Corners"
          : C.Placement == MCPlacementKind::EdgeMidpoints ? "EdgeMidpoints"
          : C.Placement == MCPlacementKind::TopBottomSpread
              ? "TopBottomSpread"
              : "Explicit") +
         ";\n";
  if (C.Placement == MCPlacementKind::Explicit) {
    Out += "  C.MCNodes = {";
    for (std::size_t I = 0; I < C.MCNodes.size(); ++I)
      Out += (I == 0 ? "" : ", ") + U(C.MCNodes[I]);
    Out += "};\n";
  }
  Out += "  C.L1SizeBytes = " + U(C.L1SizeBytes) + ";\n";
  Out += "  C.L1LineBytes = " + U(C.L1LineBytes) + ";\n";
  Out += "  C.L1Ways = " + U(C.L1Ways) + ";\n";
  Out += "  C.L2SizeBytes = " + U(C.L2SizeBytes) + ";\n";
  Out += "  C.L2LineBytes = " + U(C.L2LineBytes) + ";\n";
  Out += "  C.L2Ways = " + U(C.L2Ways) + ";\n";
  Out += std::string("  C.SharedL2 = ") + (C.SharedL2 ? "true" : "false") +
         ";\n";
  Out += std::string("  C.Granularity = InterleaveGranularity::") +
         (C.Granularity == InterleaveGranularity::CacheLine ? "CacheLine"
                                                            : "Page") +
         ";\n";
  Out += "  C.PageBytes = " + U(C.PageBytes) + ";\n";
  Out += std::string("  C.PagePolicy = PageAllocPolicy::") +
         (C.PagePolicy == PageAllocPolicy::InterleavedRoundRobin
              ? "InterleavedRoundRobin"
              : C.PagePolicy == PageAllocPolicy::FirstTouch ? "FirstTouch"
                                                            : "CompilerGuided") +
         ";\n";
  Out += "  C.BytesPerMC = " + U(C.BytesPerMC) + ";\n";
  Out += "  C.Noc.LinkBytes = " + U(C.Noc.LinkBytes) + ";\n";
  Out += "  C.Dram.Banks = " + U(C.Dram.Banks) + ";\n";
  Out += "  C.Dram.RowBufferBytes = " + U(C.Dram.RowBufferBytes) + ";\n";
  Out += "  C.ComputeGapCycles = " + U(C.ComputeGapCycles) + ";\n";
  Out += "  C.ThreadsPerCore = " + U(C.ThreadsPerCore) + ";\n";
  Out += std::string("  C.OptimalScheme = ") +
         (C.OptimalScheme ? "true" : "false") + ";\n";
  Out += std::string("  C.Burst.Enabled = ") +
         (C.Burst.Enabled ? "true" : "false") + ";\n";
  Out += "  C.Burst.WindowAccesses = " + U(C.Burst.WindowAccesses) + ";\n";
  Out += "  C.Burst.MaxLines = " + U(C.Burst.MaxLines) + ";\n";
  Out += std::string("  C.Coherence.Protocol = "
                     "MachineConfig::CoherenceProtocol::") +
         (C.Coherence.Protocol == MachineConfig::CoherenceProtocol::None
              ? "None"
              : C.Coherence.Protocol == MachineConfig::CoherenceProtocol::MSI
                    ? "MSI"
                    : "MESI") +
         ";\n";
  Out += std::string("  C.Coherence.SparseDirectory = ") +
         (C.Coherence.SparseDirectory ? "true" : "false") + ";\n";
  Out += "  C.Coherence.SparseEntries = " + U(C.Coherence.SparseEntries) +
         ";\n";
  Out += "  C.CheckInvariants = true;\n";
  return Out;
}

/// What one trial compares; names the diverging leg on failure.
struct TrialOutcome {
  bool Diverged = false;
  std::string Leg;       // "traced" or "generic division"
  std::string Field;     // first differing SimResult field
};

/// Per-node ring capacity of the traced leg: small enough that most trials
/// drop events, so the ring's overwrite path runs too.
constexpr unsigned TracedLegMaxEvents = 64;

SimResult runVariant(const TrialSpec &S, const AffineProgram &Program,
                     const LayoutPlan &Plan, const ClusterMapping &Mapping,
                     bool Traced, bool ForceGeneric) {
  MachineConfig C = S.Config;
  C.Trace.Enabled = Traced;
  C.Trace.MaxEventsPerNode = TracedLegMaxEvents;
  // The flag is read at Pow2Divider construction time; every divider of
  // this run is built inside runSingle, after the flip.
  Pow2Divider::setForceGenericDivision(ForceGeneric);
  SimResult R = runSingle(Program, Plan, C, Mapping);
  Pow2Divider::setForceGenericDivision(false);
  return R;
}

TrialOutcome runTrial(const TrialSpec &S) {
  TrialOutcome Out;
  std::string Err;
  std::optional<AffineProgram> Program =
      parseProgramText(renderProgram(S), &Err);
  if (!Program) {
    // Generator bug, not a simulator bug — fail loudly.
    std::fprintf(stderr, "offchip-fuzz: generated unparsable program: %s\n",
                 Err.c_str());
    std::exit(3);
  }
  ClusterMapping Mapping = makeM1Mapping(S.Config);
  LayoutPlan Plan =
      S.OptimizedLayout
          ? LayoutTransformer(Mapping, S.Config.layoutOptions()).run(*Program)
          : LayoutTransformer::originalPlan(*Program);

  SimResult Plain = runVariant(S, *Program, Plan, Mapping, false, false);
  SimResult Traced = runVariant(S, *Program, Plan, Mapping, true, false);
  std::string Field;
  if (!equalResults(Plain, Traced, &Field)) {
    Out.Diverged = true;
    Out.Leg = "traced";
    Out.Field = Field;
    return Out;
  }

  SimResult Generic = runVariant(S, *Program, Plan, Mapping, false, true);
  if (!equalResults(Plain, Generic, &Field)) {
    Out.Diverged = true;
    Out.Leg = "generic division";
    Out.Field = Field;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Shrinking
//===----------------------------------------------------------------------===//

/// Greedy shrink: try a list of simplifications, keeping each one that
/// still diverges, until a full pass changes nothing. Every probe re-runs
/// the whole differential, so the minimal spec fails exactly as reported.
TrialSpec shrink(TrialSpec S, TrialOutcome &Witness) {
  auto StillFails = [&Witness](const TrialSpec &Candidate) {
    if (!Candidate.Config.validate().empty())
      return false;
    TrialOutcome O = runTrial(Candidate);
    if (O.Diverged)
      Witness = O;
    return O.Diverged;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;

    // Structural shrinks: fewer nests, fewer refs, fewer iterations.
    for (std::size_t N = 0; N < S.Nests.size() && S.Nests.size() > 1; ++N) {
      TrialSpec C = S;
      C.Nests.erase(C.Nests.begin() + static_cast<std::ptrdiff_t>(N));
      if (StillFails(C)) {
        S = std::move(C);
        Changed = true;
        break;
      }
    }
    for (std::size_t N = 0; N < S.Nests.size(); ++N) {
      for (std::size_t R = 0; R < S.Nests[N].Refs.size(); ++R) {
        if (S.Nests[N].Refs.size() <= 1)
          break;
        TrialSpec C = S;
        C.Nests[N].Refs.erase(C.Nests[N].Refs.begin() +
                              static_cast<std::ptrdiff_t>(R));
        if (StillFails(C)) {
          S = std::move(C);
          Changed = true;
          break;
        }
      }
    }
    for (std::size_t N = 0; N < S.Nests.size(); ++N) {
      if (S.Nests[N].Repeat > 1) {
        TrialSpec C = S;
        C.Nests[N].Repeat = 1;
        if (StillFails(C)) {
          S = std::move(C);
          Changed = true;
        }
      }
    }
    while (S.Dim >= 16) {
      TrialSpec C = S;
      C.Dim = S.Dim / 2;
      if (!StillFails(C))
        break;
      S = std::move(C);
      Changed = true;
    }

    // Config shrinks: pull fields back toward the scaled default.
    const MachineConfig Def = MachineConfig::scaledDefault();
    auto TryConfig = [&](auto Mutate) {
      TrialSpec C = S;
      Mutate(C.Config);
      if (StillFails(C)) {
        S = std::move(C);
        Changed = true;
      }
    };
    if (S.OptimizedLayout) {
      TrialSpec C = S;
      C.OptimizedLayout = false;
      if (StillFails(C)) {
        S = std::move(C);
        Changed = true;
      }
    }
    if (S.Config.MeshX != 4 || S.Config.MeshY != 4)
      TryConfig([](MachineConfig &C) { C.MeshX = C.MeshY = 4; });
    if (S.Config.NumMCs != 4 ||
        S.Config.Placement != MCPlacementKind::Corners)
      TryConfig([](MachineConfig &C) {
        C.NumMCs = 4;
        C.Placement = MCPlacementKind::Corners;
        // A stale explicit list under a built-in kind is a validate()
        // error; the pull-back must drop both together.
        C.MCNodes.clear();
      });
    if (S.Config.ThreadsPerCore != 1)
      TryConfig([](MachineConfig &C) { C.ThreadsPerCore = 1; });
    if (S.Config.SharedL2)
      TryConfig([](MachineConfig &C) { C.SharedL2 = false; });
    if (S.Config.OptimalScheme)
      TryConfig([](MachineConfig &C) { C.OptimalScheme = false; });
    if (S.Config.Burst.Enabled)
      TryConfig([](MachineConfig &C) { C.Burst.Enabled = false; });
    if (S.Config.Coherence.enabled())
      TryConfig([](MachineConfig &C) {
        C.Coherence.Protocol = MachineConfig::CoherenceProtocol::None;
      });
    if (S.Config.Coherence.Protocol == MachineConfig::CoherenceProtocol::MESI)
      TryConfig([](MachineConfig &C) {
        C.Coherence.Protocol = MachineConfig::CoherenceProtocol::MSI;
      });
    if (S.Config.Coherence.SparseDirectory)
      TryConfig([](MachineConfig &C) {
        C.Coherence.SparseDirectory = false;
      });
    if (S.Config.Granularity != InterleaveGranularity::CacheLine)
      TryConfig([](MachineConfig &C) {
        C.Granularity = InterleaveGranularity::CacheLine;
        C.PagePolicy = PageAllocPolicy::InterleavedRoundRobin;
      });
    if (S.Config.L1SizeBytes != Def.L1SizeBytes ||
        S.Config.L1LineBytes != Def.L1LineBytes ||
        S.Config.L1Ways != Def.L1Ways)
      TryConfig([&Def](MachineConfig &C) {
        C.L1SizeBytes = Def.L1SizeBytes;
        C.L1LineBytes = Def.L1LineBytes;
        C.L1Ways = Def.L1Ways;
      });
    if (S.Config.L2SizeBytes != Def.L2SizeBytes ||
        S.Config.L2LineBytes != Def.L2LineBytes ||
        S.Config.L2Ways != Def.L2Ways)
      TryConfig([&Def](MachineConfig &C) {
        C.L2SizeBytes = Def.L2SizeBytes;
        C.L2LineBytes = Def.L2LineBytes;
        C.L2Ways = Def.L2Ways;
      });
    if (S.Config.Noc.LinkBytes != Def.Noc.LinkBytes ||
        S.Config.Dram.Banks != Def.Dram.Banks ||
        S.Config.Dram.RowBufferBytes != Def.Dram.RowBufferBytes)
      TryConfig([&Def](MachineConfig &C) {
        C.Noc = Def.Noc;
        C.Dram = Def.Dram;
      });
    if (S.Config.ComputeGapCycles != Def.ComputeGapCycles)
      TryConfig([&Def](MachineConfig &C) {
        C.ComputeGapCycles = Def.ComputeGapCycles;
      });
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

std::string renderReproFile(const TrialSpec &S, std::uint64_t Seed,
                            unsigned Trial) {
  std::string Out;
  Out += "# offchip-fuzz pending repro (seed " + std::to_string(Seed) +
         ", trial " + std::to_string(Trial) + ")\n";
  Out += "# If this file survives a run, the trial below crashed or\n";
  Out += "# tripped the invariant checker. Re-run it with:\n";
  Out += "#   offchip-fuzz --seed " + std::to_string(Seed) + " --runs " +
         std::to_string(Trial + 1) + "\n";
  Out += "#\n# Machine configuration (C++):\n";
  std::string Code = renderConfigCode(S.Config);
  std::size_t Pos = 0;
  while (Pos < Code.size()) {
    std::size_t End = Code.find('\n', Pos);
    Out += "#" + Code.substr(Pos, End - Pos) + "\n";
    Pos = End + 1;
  }
  if (S.OptimizedLayout)
    Out += "#   (simulate the optimized layout plan)\n";
  Out += "#\n# Program:\n" + renderProgram(S);
  return Out;
}

void printRegressionTest(const TrialSpec &S, const TrialOutcome &O) {
  std::printf("\n==== minimal repro: %s diverged on %s ====\n",
              O.Leg.c_str(), O.Field.c_str());
  std::printf("---- paste into tests/fuzz_regression_test.cpp ----\n");
  std::printf("TEST(FuzzRegression, Shrunk) {\n");
  std::printf("%s", renderConfigCode(S.Config).c_str());
  std::printf("  const char *Text = R\"(\n%s)\";\n",
              renderProgram(S).c_str());
  std::printf("  std::optional<AffineProgram> P = parseProgramText(Text);\n");
  std::printf("  ASSERT_TRUE(P.has_value());\n");
  std::printf("  ClusterMapping M = makeM1Mapping(C);\n");
  if (S.OptimizedLayout)
    std::printf("  LayoutPlan Plan = "
                "LayoutTransformer(M, C.layoutOptions()).run(*P);\n");
  else
    std::printf(
        "  LayoutPlan Plan = LayoutTransformer::originalPlan(*P);\n");
  std::printf("  SimResult Plain = runSingle(*P, Plan, C, M);\n");
  if (O.Leg == "generic division") {
    std::printf("  Pow2Divider::setForceGenericDivision(true);\n");
    std::printf("  SimResult Other = runSingle(*P, Plan, C, M);\n");
    std::printf("  Pow2Divider::setForceGenericDivision(false);\n");
  } else {
    std::printf("  MachineConfig TC = C;\n");
    std::printf("  TC.Trace.Enabled = true;\n");
    std::printf("  TC.Trace.MaxEventsPerNode = %u;\n", TracedLegMaxEvents);
    std::printf("  SimResult Other = runSingle(*P, Plan, TC, M);\n");
  }
  std::printf("  std::string Why;\n");
  std::printf("  EXPECT_TRUE(equalResults(Plain, Other, &Why)) << Why;\n");
  std::printf("}\n");
  std::printf("---- end ----\n");
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Runs = 20;
  unsigned Seed = 1;
  bool Verbose = false;
  std::string ReproPath = "offchip-fuzz-repro.txt";

  OptionsParser Options("offchip-fuzz",
                        "differential fuzzer for the simulator");
  Options.value("--runs", &Runs, "trials to run (default 20)");
  Options.value("--seed", &Seed, "base RNG seed (default 1)");
  Options.value("--repro-out", &ReproPath,
                "pending-repro file path (default offchip-fuzz-repro.txt)");
  Options.flag("--verbose", &Verbose, "print every trial's configuration");
  Options.flag("--coherence", &ForceCoherence,
               "draw a coherence protocol (MSI or MESI) on every trial, "
               "dropping the incompatible shared-L2/burst axes");

  std::string Err;
  bool WantedHelp = false;
  if (!Options.parse(Argc, Argv, &Err, &WantedHelp)) {
    if (WantedHelp) {
      std::fputs(Err.c_str(), stdout);
      return 0;
    }
    std::fprintf(stderr, "error: %s\n%s", Err.c_str(),
                 Options.helpText().c_str());
    return 2;
  }
  if (!Options.positional().empty()) {
    std::fprintf(stderr, "error: offchip-fuzz takes no positional args\n");
    return 2;
  }
  if (Runs == 0) {
    std::fprintf(stderr, "error: --runs must be >= 1\n");
    return 2;
  }

  for (unsigned Trial = 0; Trial < Runs; ++Trial) {
    // Each trial derives its own generator so a single trial can be re-run
    // in isolation (--seed S --runs N reproduces trial N-1 exactly).
    SplitMix64 R(0xf022ull * (Seed + 1) + 0x9e37ull * Trial);
    TrialSpec S = randomSpec(R);

    if (Verbose)
      std::printf("trial %u: %s dim %u nests %zu%s\n", Trial,
                  S.Config.summary().c_str(), S.Dim, S.Nests.size(),
                  S.OptimizedLayout ? " (optimized layout)" : "");

    // Persist the trial before running: an invariant-checker abort or a
    // crash cannot report through the process exit path, but the file it
    // leaves behind carries the full repro.
    {
      std::ofstream ReproFile(ReproPath, std::ios::trunc);
      ReproFile << renderReproFile(S, Seed, Trial);
    }

    TrialOutcome O = runTrial(S);
    if (O.Diverged) {
      std::printf("trial %u: %s diverged on %s; shrinking...\n", Trial,
                  O.Leg.c_str(), O.Field.c_str());
      TrialSpec Min = shrink(S, O);
      {
        std::ofstream ReproFile(ReproPath, std::ios::trunc);
        ReproFile << renderReproFile(Min, Seed, Trial);
      }
      printRegressionTest(Min, O);
      std::fprintf(stderr,
                   "offchip-fuzz: divergence at trial %u (seed %u); repro "
                   "kept in %s\n",
                   Trial, Seed, ReproPath.c_str());
      return 1;
    }
    std::remove(ReproPath.c_str());
  }
  std::printf("offchip-fuzz: %u trials clean (seed %u)\n", Runs, Seed);
  return 0;
}
