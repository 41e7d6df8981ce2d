//===- support/Options.cpp ------------------------------------------------===//

#include "support/Options.h"

#include "support/Format.h"

using namespace offchip;

OptionsParser::OptionsParser(std::string ToolName, std::string OverviewText)
    : Tool(std::move(ToolName)), Overview(std::move(OverviewText)) {}

void OptionsParser::flag(const std::string &Name, bool *Out,
                         const std::string &Help) {
  Spec S;
  S.Name = Name;
  S.Help = Help;
  S.FlagOut = Out;
  Specs.push_back(std::move(S));
}

bool offchip::parseUnsigned(const std::string &Text, unsigned *Out) {
  if (Text.empty())
    return false;
  unsigned long long Parsed = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    Parsed = Parsed * 10 + static_cast<unsigned>(C - '0');
    if (Parsed > 0xFFFFFFFFull)
      return false;
  }
  *Out = static_cast<unsigned>(Parsed);
  return true;
}

void OptionsParser::value(const std::string &Name, unsigned *Out,
                          const std::string &Help) {
  custom(Name, "<N>",
         [Out](const std::string &V) { return parseUnsigned(V, Out); }, Help);
}

void OptionsParser::value(const std::string &Name, std::string *Out,
                          const std::string &Help) {
  custom(Name, "<S>",
         [Out](const std::string &V) {
           *Out = V;
           return true;
         },
         Help);
}

void OptionsParser::custom(const std::string &Name,
                           const std::string &ValueName,
                           std::function<bool(const std::string &)> Parse,
                           const std::string &Help) {
  Spec S;
  S.Name = Name;
  S.ValueName = ValueName;
  S.Help = Help;
  S.Parse = std::move(Parse);
  Specs.push_back(std::move(S));
}

std::string OptionsParser::helpText() const {
  std::string Out = "usage: " + Tool + " [options]";
  if (!PositionalText.empty())
    Out += " " + PositionalText;
  Out += "\n" + Overview + "\n\noptions:\n";
  for (const Spec &S : Specs) {
    std::string Left = "  " + S.Name;
    if (!S.ValueName.empty())
      Left += " " + S.ValueName;
    Out += padRight(Left, 26) + S.Help + "\n";
  }
  Out += padRight("  --help", 26) + "print this help\n";
  return Out;
}

bool OptionsParser::parse(int Argc, char **Argv, std::string *Err,
                          bool *WantedHelp) {
  Positionals.clear();
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      if (WantedHelp)
        *WantedHelp = true;
      if (Err)
        *Err = helpText();
      return false;
    }
    if (Arg.empty() || Arg[0] != '-') {
      Positionals.push_back(std::move(Arg));
      continue;
    }
    const Spec *Match = nullptr;
    for (const Spec &S : Specs)
      if (S.Name == Arg) {
        Match = &S;
        break;
      }
    if (!Match) {
      if (Err)
        *Err = "unknown option '" + Arg + "'";
      return false;
    }
    if (Match->FlagOut) {
      *Match->FlagOut = true;
      continue;
    }
    if (I + 1 >= Argc) {
      if (Err)
        *Err = "option '" + Arg + "' requires a value";
      return false;
    }
    std::string Value = Argv[++I];
    if (!Match->Parse(Value)) {
      if (Err)
        *Err = "invalid value '" + Value + "' for option '" + Arg + "'";
      return false;
    }
  }
  return true;
}
