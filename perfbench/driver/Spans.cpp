//===- perfbench/driver/Spans.cpp -----------------------------------------===//

#include "Spans.h"

#include "api/Json.h"

#include <algorithm>
#include <fstream>
#include <unordered_map>

using namespace offchip;
using namespace perfbench;

SpanLog::Scope::Scope(SpanLog &Log, const char *Name, const char *Layer,
                      std::uint64_t Parent, std::uint64_t Request)
    : Log(Log), Name(Name), Layer(Layer),
      Id(Log.Enabled ? Log.NextId.fetch_add(1) : 0), Parent(Parent),
      Request(Request), Start(Clock::now()) {}

double SpanLog::Scope::end() {
  if (Seconds >= 0.0)
    return Seconds;
  Clock::time_point Stop = Clock::now();
  Seconds = std::chrono::duration<double>(Stop - Start).count();
  if (Log.Enabled) {
    auto Since = [&](Clock::time_point T) {
      return std::chrono::duration<double>(T - Log.Origin).count();
    };
    Log.record({Id, Parent, Request, Name, Layer, Since(Start), Since(Stop)});
  }
  return Seconds;
}

void SpanLog::record(const Span &S) {
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back(S);
}

std::map<std::string, double> SpanLog::selfSecondsByLayer() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::unordered_map<std::uint64_t, std::vector<const Span *>> Children;
  for (const Span &S : Spans)
    if (S.Parent != 0)
      Children[S.Parent].push_back(&S);
  std::map<std::string, double> Out;
  for (const Span &S : Spans) {
    // Children may overlap (parallel jobs under one sweep), so subtract the
    // union of their intervals clipped to this span, not their sum.
    std::vector<std::pair<double, double>> Iv;
    if (auto It = Children.find(S.Id); It != Children.end())
      for (const Span *C : It->second)
        Iv.push_back({std::max(C->StartS, S.StartS),
                      std::min(C->EndS, S.EndS)});
    std::sort(Iv.begin(), Iv.end());
    double Covered = 0.0, Reach = S.StartS;
    for (const auto &[Lo, Hi] : Iv) {
      double From = std::max(Lo, Reach);
      if (Hi > From) {
        Covered += Hi - From;
        Reach = Hi;
      }
    }
    Out[S.Layer] += (S.EndS - S.StartS) - Covered;
  }
  return Out;
}

bool SpanLog::write(const std::string &Path) const {
  if (!Enabled)
    return true;
  JsonValue All = JsonValue::array();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (const Span &S : Spans) {
      JsonValue O = JsonValue::object();
      O.set("id", JsonValue::number(S.Id));
      O.set("parent", JsonValue::number(S.Parent));
      O.set("request", JsonValue::number(S.Request));
      O.set("name", JsonValue::string(S.Name));
      O.set("layer", JsonValue::string(S.Layer));
      O.set("start_s", JsonValue::number(S.StartS));
      O.set("end_s", JsonValue::number(S.EndS));
      All.push(std::move(O));
    }
  }
  std::ofstream Out(Path, std::ios::trunc);
  Out << All.write() << '\n';
  return static_cast<bool>(Out);
}
