// perfbench — one benchmark for campaign throughput and daemon latency.
//
//   perfbench --workload perm_campaign|severe_campaign|serve_mixed
//             --seed N --seconds S --trace 0|1 [--work-dir DIR] [--capacity]
//
// Prints a build record line, check and note lines, and as its last line
// one JSON object {"correct","attempted","failed","metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones. Exits 1
// when a check fails and 2 on bad usage or a non-Release build.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "obs/enabled.hpp"
#include "obs/manifest.hpp"

namespace {

void print_json_string(const std::string& s) {
    std::putchar('"');
    for (const char c : s) {
        if (c == '"' || c == '\\') std::putchar('\\');
        std::putchar(c);
    }
    std::putchar('"');
}

void print_result(const perfbench::Result& r) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    bool first = true;
    for (const auto& [name, value_unit] : r.metrics) {
        if (!first) std::printf(", ");
        first = false;
        print_json_string(name);
        const double v = std::isfinite(value_unit.first) ? value_unit.first : 0.0;
        std::printf(": {\"value\": %.17g, \"unit\": ", v);
        print_json_string(value_unit.second);
        std::printf("}");
    }
    std::printf("}}\n");
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload perm_campaign|severe_campaign|serve_mixed "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR] [--capacity]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--capacity") {
            options.capacity = true;
        } else if (arg == "--workload" && has_value) {
            options.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            options.seed = std::stoull(argv[++i]);
        } else if (arg == "--seconds" && has_value) {
            options.seconds = std::stod(argv[++i]);
        } else if (arg == "--trace" && has_value) {
            options.trace = std::string(argv[++i]) != "0";
        } else if (arg == "--work-dir" && has_value) {
            options.work_dir = argv[++i];
        } else {
            return usage();
        }
    }

    std::printf("{\"build\": {\"build_type\": \"%s\", \"compiler\": \"%s\", "
                "\"obs_enabled\": %s}}\n",
                PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
                epea::obs::kEnabled ? "true" : "false");
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0 ||
        std::strcmp(epea::obs::build_type(), "Release") != 0) {
        std::fprintf(stderr, "perfbench: refusing to report from a %s build\n",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }

    perfbench::Result result;
    try {
        if (options.workload == "perm_campaign") {
            result = perfbench::run_perm_campaign(options);
        } else if (options.workload == "severe_campaign") {
            result = perfbench::run_severe_campaign(options);
        } else if (options.workload == "serve_mixed") {
            result = perfbench::run_serve_mixed(options);
        } else {
            return usage();
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", options.workload.c_str(), e.what());
        return 1;
    }

    for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
    print_result(result);
    std::fflush(stdout);
    return result.correct ? 0 : 1;
}
