//===- promises/support/BenchRecord.h - BENCH_*.json writer ----*- C++ -*-===//
//
// Part of the promises project (PLDI 1988 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one writer of BENCH_*.json records. Every bench point has the same
/// envelope, which tools/check_bench.py gates without knowing the bench:
///
///   {"bench", "pr", "machine",
///    "metrics": [{"name", "unit", "kind", "value", "baseline", "gate"}]}
///
/// `kind` says how a value was measured: "exact" (a count or correctness
/// bit), "virtual" (simulator time, deterministic per build) or "wall"
/// (measured on the host, clock time or memory: noisy). `gate` bounds the next run against this one; the
/// checker reads it from the committed record only. `baseline` is the
/// "before" half of a before/after pair; a fresh run has none, so it is
/// written as null and filled in by hand when a point is committed.
///
//===----------------------------------------------------------------------===//

#ifndef PROMISES_SUPPORT_BENCHRECORD_H
#define PROMISES_SUPPORT_BENCHRECORD_H

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>

#include <sys/utsname.h>

namespace promises {

enum class MetricKind { Exact, Virtual, Wall };

/// How far a fresh value may move from the committed one. Ratio gates
/// scale the committed value; the others compare against a constant.
struct Gate {
  std::string Json = "null";

  static Gate maxRatio(double R) { return bound("max_ratio", R); }
  static Gate minRatio(double R) { return bound("min_ratio", R); }
  static Gate max(double X) { return bound("max", X); }
  static Gate min(double X) { return bound("min", X); }
  static Gate equals(bool V) {
    return {std::string("{\"equals\": ") + (V ? "true" : "false") + "}"};
  }

private:
  static Gate bound(const char *Key, double X) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "{\"%s\": %g}", Key, X);
    return {Buf};
  }
};

class BenchRecord {
public:
  BenchRecord(const std::string &Bench, int Pr) {
    Head = "{\"bench\": " + quote(Bench) + ", \"pr\": " + std::to_string(Pr) +
           ", \"machine\": " + quote(machine()) + ",\n \"metrics\": [";
  }

  /// A number printed with \p Decimals digits after the point; NaN and
  /// infinities become null, which fails any gate.
  void metric(const std::string &Name, const char *Unit, MetricKind Kind,
              double Value, int Decimals, const Gate &G = Gate()) {
    char Buf[64] = "null";
    if (std::isfinite(Value))
      std::snprintf(Buf, sizeof(Buf), "%.*f", Decimals, Value);
    add(Name, Unit, Kind, Buf, G);
  }
  /// An exact integer: a count, a size or a run parameter.
  void count(const std::string &Name, const char *Unit, uint64_t Value,
             const Gate &G = Gate()) {
    add(Name, Unit, MetricKind::Exact, std::to_string(Value), G);
  }
  void flag(const std::string &Name, MetricKind Kind, bool Value,
            const Gate &G = Gate()) {
    add(Name, "bool", Kind, Value ? "true" : "false", G);
  }
  /// A run parameter that is text, such as a scenario name.
  void label(const std::string &Name, const std::string &Value) {
    add(Name, "label", MetricKind::Exact, quote(Value), Gate());
  }

  std::string json() const { return Head + Rows + "]}\n"; }

  /// Writes json() to \p Path; on failure says so on stderr.
  bool write(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
      return false;
    }
    std::fputs(json().c_str(), F);
    return std::fclose(F) == 0;
  }

private:
  std::string Head, Rows;

  void add(const std::string &Name, const char *Unit, MetricKind Kind,
           const std::string &Value, const Gate &G) {
    static const char *const Kinds[] = {"exact", "virtual", "wall"};
    Rows += Rows.empty() ? "\n  " : ",\n  ";
    Rows += "{\"name\": " + quote(Name) + ", \"unit\": " + quote(Unit) +
            ", \"kind\": \"" + Kinds[static_cast<int>(Kind)] +
            "\", \"value\": " + Value + ", \"baseline\": null, \"gate\": " +
            G.Json + "}";
  }

  static std::string quote(const std::string &S) {
    std::string Out = "\"";
    for (char C : S) {
      if (C == '"' || C == '\\')
        Out += '\\';
      if (static_cast<unsigned char>(C) < 0x20)
        Out += ' '; // Control characters carry nothing a reader needs.
      else
        Out += C;
    }
    return Out + "\"";
  }

  /// Architecture, CPU count and model: enough to tell that two records
  /// come from different hosts, whose wall numbers do not compare.
  static std::string machine() {
    struct utsname U = {};
    std::string Arch = uname(&U) == 0 ? U.machine : "unknown";
    std::string Model;
    if (std::FILE *F = std::fopen("/proc/cpuinfo", "r")) {
      char Line[256], Name[256];
      while (Model.empty() && std::fgets(Line, sizeof(Line), F))
        if (std::sscanf(Line, "model name : %255[^\n]", Name) == 1)
          Model = Name;
      std::fclose(F);
    }
    std::string Out = Arch + ", " +
                      std::to_string(std::thread::hardware_concurrency()) +
                      " cpus";
    return Model.empty() ? Out : Out + ", " + Model;
  }
};

} // namespace promises

#endif // PROMISES_SUPPORT_BENCHRECORD_H
