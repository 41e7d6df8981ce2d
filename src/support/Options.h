//===- support/Options.h - Declarative CLI flag parsing ---------*- C++ -*-===//
///
/// \file
/// A small declarative command-line parser shared by the tool and every
/// bench binary. Callers register flags bound to variables (or callbacks
/// for structured values like "8x8"), then parse(); unmatched non-dash
/// arguments are collected as positionals. Keeps the per-binary strcmp
/// ladders out of main().
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_SUPPORT_OPTIONS_H
#define OFFCHIP_SUPPORT_OPTIONS_H

#include <functional>
#include <string>
#include <vector>

namespace offchip {

/// Strict unsigned parse shared by every numeric flag: decimal digits only,
/// at most 32 bits. strtoul is the wrong contract for flags: it wraps "-1"
/// to ULONG_MAX, saturates out-of-range values instead of failing, and
/// skips leading whitespace and trailing junk, all of which silently turn
/// typos into huge counts.
bool parseUnsigned(const std::string &Text, unsigned *Out);

class OptionsParser {
public:
  /// \param Tool     binary name for the usage line
  /// \param Overview one-line description printed by --help
  OptionsParser(std::string Tool, std::string Overview);

  /// Boolean switch: "--name" sets *Out to true.
  void flag(const std::string &Name, bool *Out, const std::string &Help);

  /// "--name <N>" parsed as an unsigned integer.
  void value(const std::string &Name, unsigned *Out, const std::string &Help);

  /// "--name <S>" stored verbatim.
  void value(const std::string &Name, std::string *Out,
             const std::string &Help);

  /// "--name <V>" handed to \p Parse; return false to reject the value.
  void custom(const std::string &Name, const std::string &ValueName,
              std::function<bool(const std::string &)> Parse,
              const std::string &Help);

  /// Declares the positional arguments for the usage line, e.g.
  /// "<program.txt>".
  void positionalHelp(std::string Text) { PositionalText = std::move(Text); }

  /// Parses \p Argv. On failure, fills \p Err with a diagnostic and returns
  /// false. "--help" is handled built-in: \p Err is set to the full help
  /// text and false is returned with \p WantedHelp (when non-null) set.
  bool parse(int Argc, char **Argv, std::string *Err,
             bool *WantedHelp = nullptr);

  const std::vector<std::string> &positional() const { return Positionals; }

  /// Full help text: usage line plus one line per registered option.
  std::string helpText() const;

private:
  struct Spec {
    std::string Name;      // including leading dashes
    std::string ValueName; // empty for bare switches
    std::string Help;
    std::function<bool(const std::string &)> Parse; // null for switches
    bool *FlagOut = nullptr;
  };

  std::string Tool;
  std::string Overview;
  std::string PositionalText;
  std::vector<Spec> Specs;
  std::vector<std::string> Positionals;
};

} // namespace offchip

#endif // OFFCHIP_SUPPORT_OPTIONS_H
