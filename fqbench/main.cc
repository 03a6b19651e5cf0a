// fqbench: the FRESQUE benchmark program.
//
//   fqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--work-dir DIR]
//   fqbench --self-test [--work-dir DIR]
//
// Prints a run record line and, as its last line, one JSON object:
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when an output check fails.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "crypto/aes.h"

#ifndef FQBENCH_BUILD_TYPE
#define FQBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";  // the run is then marked incorrect
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: fqbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--work-dir DIR]\n       fqbench --self-test [--work-dir DIR]\n"
               "workloads:");
  for (const auto& n : fqbench::WorkloadNames()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fqbench::Options opt;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else {
      return Usage();
    }
  }
  if (self_test) {
    // The start-failure case forks, so it runs before the oracle tests
    // start any thread.
    const int failures = fqbench::StartFailureSelfTest(opt) + fqbench::SelfTest();
    return failures == 0 ? 0 : 1;
  }
  fqbench::WorkloadSpec w;
  if (!fqbench::FindWorkload(opt.workload, &w) || opt.seconds <= 0) {
    return Usage();
  }

  fqbench::RunOutput out = fqbench::RunWorkload(w, opt);
  for (const auto& [name, vu] : out.metrics) {
    if (!std::isfinite(vu.first)) {
      out.correct = false;
      out.problems.push_back("metric " + name + " is not finite");
    }
  }

  // Run record: everything needed to compare two runs.
  const char* sha = std::getenv("FQBENCH_GIT_SHA");
  std::string rec = "{\"run_record\":{\"workload\":" + JsonString(w.name) +
                    ",\"seed\":" + std::to_string(opt.seed) +
                    ",\"seconds\":" + JsonNumber(opt.seconds) +
                    ",\"trace\":" + (opt.trace ? "1" : "0") +
                    ",\"rounds\":" + std::to_string(out.rounds) +
                    ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                    ",\"aes_backend\":" +
                    JsonString(fresque::crypto::Aes::ActiveBackendName()) +
                    ",\"git_sha\":" + JsonString(sha != nullptr ? sha : "unknown") +
                    ",\"build_type\":" + JsonString(FQBENCH_BUILD_TYPE) +
                    ",\"fsync_policy\":" +
                    JsonString(w.durable ? "always" : "none (in-memory cloud)") +
                    ",\"ops\":{";
  auto op = [](const char* name, const fqbench::OpCount& c) {
    return std::string("\"") + name + "\":{\"attempted\":" +
           std::to_string(c.attempted) + ",\"failed\":" + std::to_string(c.failed) +
           "}";
  };
  rec += op("lines", out.lines) + "," + op("publications", out.publications) +
         "," + op("queries", out.queries) + "}";
  for (const auto& [k, v] : out.notes) rec += "," + JsonString(k) + ":" + JsonString(v);
  rec += ",\"problems\":[";
  for (size_t i = 0; i < out.problems.size(); ++i) {
    rec += (i ? "," : "") + JsonString(out.problems[i]);
  }
  rec += "]}}";
  std::printf("%s\n", rec.c_str());

  const uint64_t attempted = out.lines.attempted + out.publications.attempted +
                             out.queries.attempted;
  const uint64_t failed =
      out.lines.failed + out.publications.failed + out.queries.failed;
  std::string res = std::string("{\"correct\":") + (out.correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, vu] : out.metrics) {
    res += (first ? "" : ",") + JsonString(name) + ":{\"value\":" +
           JsonNumber(vu.first) + ",\"unit\":" + JsonString(vu.second) + "}";
    first = false;
  }
  res += "}}";
  std::printf("%s\n", res.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
