//===- harness/ScenarioFlags.cpp ------------------------------------------===//

#include "harness/ScenarioFlags.h"

#include <cstdio>

using namespace offchip;

ScenarioFlags::ScenarioFlags(OptionsParser &P, MachineConfig &C)
    : Parser(P), Config(C) {
  Parser.flag("--burst-coalesce", &Config.Burst.Enabled,
              "coalesce runs of adjacent off-chip lines into wide DRAM "
              "transactions (default off)");
  Parser.custom("--coherence", "<msi|mesi>",
                [this](const std::string &V) {
                  if (V == "msi")
                    Config.Coherence.Protocol =
                        MachineConfig::CoherenceProtocol::MSI;
                  else if (V == "mesi")
                    Config.Coherence.Protocol =
                        MachineConfig::CoherenceProtocol::MESI;
                  else
                    return false;
                  return true;
                },
                "model an invalidation-based coherence protocol over the "
                "private-L2 machine (default off)");
  Parser.custom("--sparse-dir", "<N>",
                [this](const std::string &V) {
                  unsigned N = 0;
                  if (!parseUnsigned(V, &N) || N == 0)
                    return false;
                  Config.Coherence.SparseDirectory = true;
                  Config.Coherence.SparseEntries = N;
                  SparseDirGiven = true;
                  return true;
                },
                "bound the coherence directory to N > 0 tracked lines, "
                "evicting by broadcast-invalidate (default unbounded; needs "
                "--coherence)");
  Parser.custom("--placement", "<kind>",
                [this](const std::string &V) {
                  if (std::optional<ConfigDiagnostic> D =
                          parsePlacementOption(V, &Config.Placement)) {
                    FlagDiags.push_back(std::move(*D));
                    return false;
                  }
                  return true;
                },
                std::string("MC placement kind: ") + mcPlacementNames() +
                    " (default corners)");
  Parser.custom("--mc-nodes", "<n0,n1,...>",
                [this](const std::string &V) {
                  if (std::optional<ConfigDiagnostic> D =
                          parseMCNodeListOption(V, &Config.MCNodes)) {
                    FlagDiags.push_back(std::move(*D));
                    return false;
                  }
                  Config.Placement = MCPlacementKind::Explicit;
                  return true;
                },
                "explicit MC node ids, one per MC in interleave order "
                "(implies --placement explicit)");
}

std::optional<int> ScenarioFlags::parse(int Argc, char **Argv) {
  std::string Err;
  bool WantedHelp = false;
  if (!Parser.parse(Argc, Argv, &Err, &WantedHelp)) {
    if (WantedHelp) {
      std::fputs(Err.c_str(), stdout);
      return 0;
    }
    if (!FlagDiags.empty()) {
      std::fprintf(stderr, "%s\n", renderDiagnostics(FlagDiags).c_str());
      return 2;
    }
    std::fprintf(stderr, "error: %s\n%s", Err.c_str(),
                 Parser.helpText().c_str());
    return 2;
  }
  if (SparseDirGiven && !Config.Coherence.enabled()) {
    std::fprintf(stderr, "error: --sparse-dir requires --coherence\n");
    return 2;
  }
  return std::nullopt;
}

void offchip::addMeshFlag(OptionsParser &Parser, MachineConfig &Config) {
  Parser.custom("--mesh", "<X>x<Y>",
                [&Config](const std::string &V) {
                  std::size_t Cross = V.find('x');
                  unsigned X = 0, Y = 0;
                  if (Cross == std::string::npos ||
                      !parseUnsigned(V.substr(0, Cross), &X) ||
                      !parseUnsigned(V.substr(Cross + 1), &Y) || X == 0 ||
                      Y == 0)
                    return false;
                  Config.MeshX = X;
                  Config.MeshY = Y;
                  return true;
                },
                "mesh size (default 8x8)");
}
