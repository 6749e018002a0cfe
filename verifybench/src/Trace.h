//===- Trace.h - In-memory spans for the traced benchmark run -------*- C++ -*-===//
//
// Part of the relaxc project: a verifier for relaxed nondeterministic
// approximate programs (Carbin et al., PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded around the benchmark's calls into each relaxc layer.
/// A span has a name (the layer), a start, an end, the span that caused
/// it and the id of the verification it belongs to. Spans are appended to
/// memory while the run measures and written out when it ends; a layer's
/// self time is its spans' durations minus the part their child spans
/// cover.
///
//===----------------------------------------------------------------------===//

#ifndef VERIFYBENCH_TRACE_H
#define VERIFYBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace relax {
namespace bench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

struct Span {
  const char *Name;
  int64_t StartNs;
  int64_t EndNs;
  int32_t Parent; ///< index into the span list, -1 for a root
  uint32_t Verification;
};

/// Single-threaded span recorder.
class Tracer {
public:
  Tracer() : Epoch(Clock::now()) {}

  /// RAII span: opens on construction, closes on destruction. A null
  /// tracer makes it a no-op, so the replay code reads the same either way.
  class Scope {
  public:
    Scope(Tracer *T, const char *Name) : T(T) {
      if (T)
        Index = T->open(Name);
    }
    ~Scope() {
      if (T)
        T->close(Index);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *T;
    int32_t Index = -1;
  };

  void beginVerification(uint32_t Id) { Current = Id; }

  /// Self time in ms per span name.
  std::map<std::string, double> selfTimes() const {
    std::vector<int64_t> ChildNs(Spans.size(), 0);
    for (size_t I = 0; I != Spans.size(); ++I)
      if (Spans[I].Parent >= 0)
        ChildNs[Spans[I].Parent] += Spans[I].EndNs - Spans[I].StartNs;
    std::map<std::string, double> Out;
    for (size_t I = 0; I != Spans.size(); ++I)
      Out[Spans[I].Name] +=
          (Spans[I].EndNs - Spans[I].StartNs - ChildNs[I]) / 1e6;
    return Out;
  }

  /// Summed time of the root spans in ms.
  double rootTime() const {
    double Ms = 0;
    for (size_t I = 0; I != Spans.size(); ++I)
      if (Spans[I].Parent < 0)
        Ms += (Spans[I].EndNs - Spans[I].StartNs) / 1e6;
    return Ms;
  }

  /// One JSON object per line: name, start_ns, end_ns, parent, verification.
  std::string toJsonLines() const {
    std::string Out;
    char Buf[256];
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::snprintf(Buf, sizeof(Buf),
                    "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                    "\"end_ns\":%lld,\"parent\":%d,\"verification\":%u}\n",
                    I, S.Name, static_cast<long long>(S.StartNs),
                    static_cast<long long>(S.EndNs), S.Parent,
                    S.Verification);
      Out += Buf;
    }
    return Out;
  }

private:
  Clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
  uint32_t Current = 0;

  int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                Epoch)
        .count();
  }

  int32_t open(const char *Name) {
    int32_t Parent = Open.empty() ? -1 : Open.back();
    Spans.push_back(Span{Name, now(), 0, Parent, Current});
    int32_t Index = static_cast<int32_t>(Spans.size() - 1);
    Open.push_back(Index);
    return Index;
  }

  void close(int32_t Index) {
    Spans[Index].EndNs = now();
    Open.pop_back();
  }
};

} // namespace bench
} // namespace relax

#endif // VERIFYBENCH_TRACE_H
