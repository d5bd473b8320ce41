// epea_tool — command-line front end for the library's main workflows.
//
//   epea_tool describe [--dot]                   print the target's structure
//   epea_tool simulate [--mass KG --speed MPS]   run one arrestment
//   epea_tool estimate [--cases N --times M]     FI campaign -> matrix CSV
//   epea_tool analyze FILE [--sink SIGNAL]       profile + placement from CSV
//   epea_tool inject --signal S --bit B --at T   one injection, EA report
//   epea_tool campaign run|resume|status ...     sharded checkpointed campaigns
//   epea_tool place optimize|frontier|explain    cost-aware EA placement search
//   epea_tool analytic predict|diff-plan|validate  engine queries, no campaign
//   epea_tool synth [--layers ...]               generate a synthetic system
//   epea_tool obs trace|metrics|report DIR       inspect observability artifacts
//   epea_tool serve [--port N]                   HTTP/JSON placement service
//   epea_tool version                            print the tool version
//
// Matrices written by `estimate` feed `analyze`, so the expensive
// campaign runs once and the analysis can be repeated offline. The
// `campaign` subcommands manage a campaign directory (spec.json, shard
// checkpoints, events.jsonl) that survives kills and resumes. `place`
// runs the src/opt/ placement optimizer — benefits from the analytic
// engine by default, campaign-backed with --benefit ground-truth
// (memoized under --dir). `analytic` answers
// permeability/exposure queries from a measured matrix without running
// a campaign, plans minimal delta campaigns after a model edit, and
// validates the engine against enumeration and campaign ground truth.
//
// Observed commands (estimate, campaign run|resume, place) record spans
// and metrics for the duration of the run; campaign runs always leave
// manifest.json/metrics.json/trace.json in the campaign directory, and
// every observed command honours --trace-out FILE (Chrome trace JSON,
// Perfetto-loadable) and --metrics-out FILE (.prom selects Prometheus
// text, JSON otherwise).
//
// Unknown commands and unknown flags are rejected with the usage text
// and exit status 2, so scripts fail loudly on typos.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "alt/tank_system.hpp"
#include "analysis/campaign_lint.hpp"
#include "analytic/benefit.hpp"
#include "analytic/report.hpp"
#include "analytic/context.hpp"
#include "analytic/delta.hpp"
#include "analytic/validate.hpp"
#include "analysis/matrix_lint.hpp"
#include "analysis/model_lint.hpp"
#include "analysis/placement_lint.hpp"
#include "analysis/source_lint.hpp"
#include "campaign/executor.hpp"
#include "campaign/observer.hpp"
#include "fi/fastpath.hpp"
#include "obs/manifest.hpp"
#include "epic/impact.hpp"
#include "epic/measures.hpp"
#include "epic/paths.hpp"
#include "epic/placement.hpp"
#include "epic/serialize.hpp"
#include "exp/arrestment_experiments.hpp"
#include "exp/paper_data.hpp"
#include "fi/golden.hpp"
#include "fi/injector.hpp"
#include "model/dot.hpp"
#include "opt/optimizer.hpp"
#include "opt/report.hpp"
#include "prove/certificate.hpp"
#include "prove/hints.hpp"
#include "prove/prover.hpp"
#include "serve/daemon.hpp"
#include "synth/generator.hpp"
#include "util/table.hpp"

#ifndef EPEA_VERSION
#define EPEA_VERSION "0.0.0-dev"
#endif

namespace {

using namespace epea;

int usage() {
    std::fprintf(stderr,
                 "usage: epea_tool <command> [options]\n"
                 "  describe [--dot]\n"
                 "  simulate [--mass KG] [--speed MPS]\n"
                 "  estimate [--cases N] [--times M] [--out FILE] [--no-batch]\n"
                 "           [--trace-out FILE] [--metrics-out FILE]\n"
                 "  analyze FILE [--sink SIGNAL]\n"
                 "  inject --signal NAME --bit B --at TICK\n"
                 "  campaign run --dir DIR [--spec FILE] [--kind K] [--cases N]\n"
                 "               [--times M] [--shards S] [--threads T]\n"
                 "               [--max-shards N] [--adaptive HALF_WIDTH]\n"
                 "               [--min-trials N] [--out FILE] [--no-batch]\n"
                 "               [--trace-out FILE] [--metrics-out FILE]\n"
                 "               [--timeline-interval MS] [--timeline-stall N]\n"
                 "  campaign resume --dir DIR [--threads T] [--max-shards N]\n"
                 "                  [--out FILE] [--no-batch]\n"
                 "                  [--trace-out FILE] [--metrics-out FILE]\n"
                 "                  [--timeline-interval MS] [--timeline-stall N]\n"
                 "  campaign status --dir DIR [--metrics] [--follow]\n"
                 "                  [--interval SECONDS]\n"
                 "  obs trace DIR                  summarize DIR/trace.json\n"
                 "  obs metrics DIR                print DIR metrics as Prometheus text\n"
                 "  obs report DIR [--json] [--top N]  phase/critical-path report\n"
                 "  place optimize [--error-model input|severe]\n"
                 "                 [--benefit analytic|ground-truth] [--dir DIR]\n"
                 "                 [--budget-memory B] [--json] [--no-prune]\n"
                 "                 [--budget-time T]\n"
                 "                 [--cases N] [--times M] [--shards S] [--threads T]\n"
                 "                 [--no-batch]\n"
                 "                 [--trace-out FILE] [--metrics-out FILE]\n"
                 "  place frontier [--error-model M] [--out-prefix PATH]\n"
                 "                 [--benefit analytic|ground-truth] [--dir DIR]\n"
                 "                 [--cases N] [--times M]\n"
                 "                 [--shards S] [--threads T]\n"
                 "  place explain  [same options as frontier]\n"
                 "                 (ground truth memoizes campaigns under --dir\n"
                 "                 when given, else runs them in memory)\n"
                 "  check <arrestment|tank|FILE.sys> [--matrix FILE]\n"
                 "        [--placement S1,S2,...|EH-set|PA-set|EXT-set]\n"
                 "        [--error-model input|severe] [--json] [--out FILE]\n"
                 "  lint <model|matrix|placement|campaign|metrics|all>\n"
                 "       [--json] [--strict] [--out FILE] [--model FILE]\n"
                 "       [--matrix FILE] [--ea S1,S2,...] [--full-coverage]\n"
                 "       [--frontier-dot FILE]\n"
                 "       [--campaign-dir DIR] [--src DIR]\n"
                 "  lint rules                     print the EPEA rule catalog\n"
                 "  analytic predict [--matrix FILE] [--source SIG] [--sink SIG]\n"
                 "                   [--json]\n"
                 "  analytic diff-plan --model FILE [--base-model FILE] [--dir DIR]\n"
                 "                     [--spec-out FILE] [--json]\n"
                 "                     [--cached FILE --fresh FILE --merged-out FILE]\n"
                 "  analytic validate [--no-campaign] [--no-synth] [--cases N]\n"
                 "                    [--times M] [--graphs N] [--seed S]\n"
                 "                    [--enumeration-tolerance D]\n"
                 "                    [--campaign-tolerance D] [--out FILE]\n"
                 "  synth [--layers N] [--width N] [--fan-in N] [--fan-out N]\n"
                 "        [--edge-density D] [--cycle-density D] [--seed S]\n"
                 "        [--out FILE] [--matrix-out FILE]\n"
                 "  serve [--model FILE] [--matrix FILE] [--port N] [--threads T]\n"
                 "        [--eval-dir DIR] [--cases N] [--times M]\n"
                 "        [--trace-out FILE] [--metrics-out FILE]\n"
                 "  version\n");
    return 2;
}

/// Strict argument validation: every --flag must be declared (value flags
/// consume the next token), and at most `max_positionals` bare arguments
/// are accepted. Typos fail loudly instead of being silently ignored.
bool flags_ok(const std::vector<std::string>& args,
              std::initializer_list<const char*> value_flags,
              std::initializer_list<const char*> bool_flags,
              std::size_t max_positionals = 0) {
    std::size_t positionals = 0;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& a = args[i];
        if (a.rfind("--", 0) == 0) {
            const auto match = [&a](const char* f) { return a == f; };
            if (std::any_of(value_flags.begin(), value_flags.end(), match)) {
                if (i + 1 >= args.size()) {
                    std::fprintf(stderr, "epea_tool: flag %s needs a value\n",
                                 a.c_str());
                    return false;
                }
                ++i;
                continue;
            }
            if (std::any_of(bool_flags.begin(), bool_flags.end(), match)) continue;
            std::fprintf(stderr, "epea_tool: unknown flag %s\n", a.c_str());
            return false;
        }
        if (++positionals > max_positionals) {
            std::fprintf(stderr, "epea_tool: unexpected argument '%s'\n", a.c_str());
            return false;
        }
    }
    return true;
}

/// Fetches the value following `flag`, if present.
std::optional<std::string> flag_value(const std::vector<std::string>& args,
                                      const char* flag) {
    for (std::size_t i = 0; i + 1 < args.size(); ++i) {
        if (args[i] == flag) return args[i + 1];
    }
    return std::nullopt;
}

bool has_flag(const std::vector<std::string>& args, const char* flag) {
    for (const auto& a : args) {
        if (a == flag) return true;
    }
    return false;
}

/// Stores the value of the numeric `flag` in `out` when the flag is
/// present. The whole token must be a number of `out`'s type, at least
/// `min` — integers within the type's range, reals finite — so signs,
/// trailing garbage and wrap-around are refused. A bad value is a usage
/// error: the message names the flag and the process exits 2, whatever
/// error handling the command has around its work.
template <typename T>
void number_flag(const std::vector<std::string>& args, const char* flag, T& out,
                 std::type_identity_t<T> min = T{}) {
    const auto text = flag_value(args, flag);
    if (!text) return;
    T value{};
    const char* end = text->data() + text->size();
    const auto [ptr, ec] = std::from_chars(text->data(), end, value);
    bool ok = ec == std::errc{} && ptr == end && !(value < min);
    if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
    if (!ok) {
        std::ostringstream range;
        if constexpr (std::is_integral_v<T>) {
            range << "an integer in [" << +min << ", "
                  << +std::numeric_limits<T>::max() << "]";
        } else {
            range << "a finite number >= " << min;
        }
        std::fprintf(stderr, "epea_tool: %s expects %s, got '%s'\n", flag,
                     range.str().c_str(), text->c_str());
        std::exit(2);
    }
    out = value;
}

/// Observability plumbing shared by observed commands: arms a
/// RunRecorder on construction; finish() finalizes it and writes the
/// --trace-out/--metrics-out artifacts plus, when an artifact directory
/// is set (campaign runs), manifest.json/metrics.json/trace.json there.
/// obs::ArgvRecorder with this binary's version stamped in.
class ObsCli : public obs::ArgvRecorder {
public:
    ObsCli(const std::vector<std::string>& args, std::string command)
        : obs::ArgvRecorder(args, std::move(command), EPEA_VERSION) {}
};

int cmd_describe(const std::vector<std::string>& args) {
    if (!flags_ok(args, {}, {"--dot"})) return usage();
    const model::SystemModel system = target::make_arrestment_model();
    if (has_flag(args, "--dot")) {
        model::write_dot(std::cout, system);
        return 0;
    }
    epic::save_system_text(std::cout, system);
    std::printf("# %zu modules, %zu signals, %zu input/output pairs\n",
                system.module_count(), system.signal_count(), system.pair_count());
    return 0;
}

int cmd_simulate(const std::vector<std::string>& args) {
    if (!flags_ok(args, {"--mass", "--speed"}, {})) return usage();
    target::TestCase tc;
    number_flag(args, "--mass", tc.mass_kg);
    number_flag(args, "--speed", tc.engage_speed_mps);

    target::ArrestmentSystem sys;
    sys.configure(tc);
    const runtime::RunResult rr = sys.run_arrestment();
    const target::FailureReport report = sys.plant().failure_report();
    std::printf("%s: %.0f kg @ %.0f m/s stopped in %u ms at %.1f m "
                "(peak %.2f g, %.0f %% of allowed force)\n",
                report.failed() ? "FAILURE" : "OK", tc.mass_kg, tc.engage_speed_mps,
                rr.ticks, report.final_distance_m, report.peak_retardation_g,
                report.peak_force_ratio * 100.0);
    return report.failed() ? 1 : 0;
}

int cmd_estimate(const std::vector<std::string>& args) {
    if (!flags_ok(args,
                  {"--cases", "--times", "--out", "--trace-out", "--metrics-out"},
                  {"--no-batch"})) {
        return usage();
    }
    exp::CampaignOptions options = exp::CampaignOptions::from_env();
    number_flag(args, "--cases", options.case_count, 1);
    number_flag(args, "--times", options.times_per_bit);
    options.use_batch = !has_flag(args, "--no-batch");

    ObsCli obs_cli(args, "estimate");
    {
        util::JsonObject config;
        config.emplace("cases", util::JsonValue(options.case_count));
        config.emplace("times_per_bit", util::JsonValue(options.times_per_bit));
        config.emplace("seed", util::JsonValue(options.seed));
        config.emplace("max_ticks", util::JsonValue(options.max_ticks));
        obs_cli.manifest().config = std::move(config);
        obs_cli.manifest().seed_base = options.seed;
        obs_cli.manifest().fastpath = options.use_batch;
    }

    std::fprintf(stderr, "estimating (%zu cases x %zu times/bit)...\n",
                 options.case_count, options.times_per_bit);
    static const model::SystemModel system = target::make_arrestment_model();
    epic::PermeabilityMatrix pm(system);
    try {
        // The campaign executor, in memory: shards over every hardware
        // thread, bit-identical to `campaign run --kind permeability`.
        campaign::CampaignExecutor exec(
            "", campaign::CampaignSpec::from_options(
                    campaign::CampaignKind::kPermeability, options));
        campaign::ExecutorOptions exec_options;
        exec_options.use_batch = options.use_batch;
        exec.run(exec_options);
        pm = exec.merged_matrix(system);
        obs_cli.manifest().fastpath_stats =
            fi::fastpath_stats_json(exec.fastpath_totals());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "estimate: %s\n", e.what());
        return 1;
    }

    if (const auto out = flag_value(args, "--out")) {
        std::ofstream file(*out);
        if (!file) {
            std::fprintf(stderr, "cannot write %s\n", out->c_str());
            return 1;
        }
        epic::save_matrix_csv(file, pm);
        std::fprintf(stderr, "wrote %s\n", out->c_str());
    } else {
        epic::save_matrix_csv(std::cout, pm);
    }
    return obs_cli.finish();
}

int cmd_analyze(const std::vector<std::string>& args) {
    if (args.empty()) return usage();
    if (!flags_ok(args, {"--sink"}, {}, 1)) return usage();
    static const model::SystemModel system = target::make_arrestment_model();
    std::ifstream file(args[0]);
    if (!file) {
        std::fprintf(stderr, "cannot read %s\n", args[0].c_str());
        return 1;
    }
    const epic::PermeabilityMatrix pm = epic::load_matrix_csv(file, system);
    const std::string sink_name = flag_value(args, "--sink").value_or("TOC2");
    const model::SignalId sink = system.signal_id(sink_name);

    util::TextTable table({"Signal", "X_s", "impact -> " + sink_name, "PA", "EXT",
                           "Motivation (extended)"},
                          {util::Align::kLeft, util::Align::kRight,
                           util::Align::kRight, util::Align::kLeft,
                           util::Align::kLeft, util::Align::kLeft});
    const auto pa = epic::pa_placement(pm);
    const auto ext = epic::extended_placement(pm);
    for (const auto& row : epic::exposure_profile(pm)) {
        const auto imp = row.signal == sink
                             ? std::optional<double>{}
                             : std::optional<double>{epic::impact(pm, row.signal, sink)};
        table.add_row({system.signal_name(row.signal),
                       row.exposure ? util::TextTable::num(*row.exposure) : "-",
                       imp ? util::TextTable::num(*imp) : "-",
                       pa[row.signal.index()].selected ? "x" : "-",
                       ext[row.signal.index()].selected ? "x" : "-",
                       ext[row.signal.index()].motivation});
    }
    std::cout << table;

    std::printf("\nBacktrack tree of %s:\n%s", sink_name.c_str(),
                epic::render_tree(system, epic::backward_paths(pm, sink), true)
                    .c_str());
    return 0;
}

int cmd_inject(const std::vector<std::string>& args) {
    if (!flags_ok(args, {"--signal", "--bit", "--at"}, {})) return usage();
    const auto signal = flag_value(args, "--signal");
    const auto bit = flag_value(args, "--bit");
    const auto at = flag_value(args, "--at");
    if (!signal || !bit || !at) return usage();
    unsigned bit_index = 0;
    runtime::Tick tick = 0;
    number_flag(args, "--bit", bit_index);
    number_flag(args, "--at", tick);

    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[12]);
    const model::SignalId sid = sys.system().signal_id(*signal);

    fi::Injector injector(sys.sim());
    const fi::GoldenRun gr = fi::capture_golden_run(sys.sim(), target::kMaxRunTicks);
    ea::EaBank bank = exp::make_calibrated_bank(sys.system(), {gr.trace});
    bank.arm(sys.sim());

    injector.arm({fi::Injection::into_signal(sid, bit_index, tick)});
    sys.sim().reset();
    sys.sim().run(target::kMaxRunTicks);

    std::printf("injected %s bit %s at t=%s (fired %zu time(s))\n", signal->c_str(),
                bit->c_str(), at->c_str(), injector.fired_count());
    for (const auto sid2 : sys.system().all_signals()) {
        if (const auto t = sys.sim().trace()->first_difference(gr.trace, sid2)) {
            std::printf("  deviation: %-12s first differs at t=%u\n",
                        sys.system().signal_name(sid2).c_str(), *t);
        }
    }
    bool detected = false;
    for (std::size_t e = 0; e < bank.size(); ++e) {
        if (!bank.at(e).triggered()) continue;
        detected = true;
        std::printf("  detected by %s at t=%u\n", bank.at(e).name().c_str(),
                    bank.at(e).first_detection());
    }
    if (!detected) std::printf("  no EA detected the error\n");
    std::printf("outcome: %s\n",
                sys.plant().failure_report().failed() ? "SYSTEM FAILURE" : "arrested OK");
    sys.sim().clear_monitors();
    return 0;
}

void print_campaign_result(campaign::CampaignExecutor& exec,
                           const std::vector<std::string>& args) {
    switch (exec.spec().kind) {
        case campaign::CampaignKind::kPermeability: {
            static const model::SystemModel system = target::make_arrestment_model();
            const epic::PermeabilityMatrix pm = exec.merged_matrix(system);
            if (const auto out = flag_value(args, "--out")) {
                std::ofstream file(*out);
                if (!file) {
                    std::fprintf(stderr, "cannot write %s\n", out->c_str());
                    return;
                }
                epic::save_matrix_csv(file, pm);
                std::fprintf(stderr, "wrote %s\n", out->c_str());
            } else {
                epic::save_matrix_csv(std::cout, pm);
            }
            break;
        }
        case campaign::CampaignKind::kSevere: {
            const exp::SevereCoverageResult severe = exec.merged_severe();
            std::printf("severe model: %llu runs, %llu failures\n",
                        static_cast<unsigned long long>(severe.runs),
                        static_cast<unsigned long long>(severe.failures));
            for (const auto& set : severe.sets) {
                std::printf("  %s: c_tot %.3f  c_fail %.3f  c_nofail %.3f\n",
                            set.set_name.c_str(), set.cells[2][0].coverage(),
                            set.cells[2][1].coverage(), set.cells[2][2].coverage());
            }
            break;
        }
        case campaign::CampaignKind::kRecovery: {
            const exp::RecoveryResult rec = exec.merged_recovery();
            std::printf("recovery: %llu runs, failure rate %.4f baseline -> %.4f "
                        "with ERMs (%llu repairs)\n",
                        static_cast<unsigned long long>(rec.runs),
                        rec.baseline_failure_rate(), rec.erm_failure_rate(),
                        static_cast<unsigned long long>(rec.repairs));
            break;
        }
        case campaign::CampaignKind::kInput: {
            const exp::InputCoverageResult input = exec.merged_input();
            std::printf("input model: %llu injections, %llu active\n",
                        static_cast<unsigned long long>(input.all.injected),
                        static_cast<unsigned long long>(input.all.active));
            for (std::size_t s = 0; s < input.subset_names.size(); ++s) {
                const double c =
                    input.all.active
                        ? static_cast<double>(input.all.detected_per_subset[s]) /
                              static_cast<double>(input.all.active)
                        : 0.0;
                std::printf("  %s: coverage %.3f\n", input.subset_names[s].c_str(), c);
            }
            break;
        }
    }
}

int run_and_report(campaign::CampaignExecutor& exec,
                   const std::vector<std::string>& args, const char* command) {
    campaign::ExecutorOptions opts;  // threads default 0 = auto
    number_flag(args, "--threads", opts.threads);
    number_flag(args, "--max-shards", opts.max_shards);
    opts.echo_events = has_flag(args, "--verbose");
    opts.use_batch = !has_flag(args, "--no-batch");
    number_flag(args, "--timeline-interval", opts.timeline_interval_ms);
    number_flag(args, "--timeline-stall", opts.timeline_stall_samples);

    ObsCli obs_cli(args, command);
    obs_cli.set_artifact_dir(exec.dir());
    obs_cli.manifest().config =
        util::JsonValue::parse(exec.spec().to_json()).as_object();
    obs_cli.manifest().seed_base = exec.spec().seed;
    obs_cli.manifest().fastpath = opts.use_batch;
    obs_cli.manifest().threads = opts.threads;

    const bool complete = exec.run(opts);
    obs_cli.manifest().fastpath_stats =
        fi::fastpath_stats_json(exec.fastpath_totals());
    const int obs_rc = obs_cli.finish();
    std::printf("%s", campaign::render_status(campaign::read_status(exec.dir())).c_str());
    std::printf("phase wall-clock:\n%s", exec.timers().summary().c_str());
    if (exec.adaptive_stopped()) {
        std::printf("adaptive stopping saved %llu runs\n",
                    static_cast<unsigned long long>(exec.saved_runs()));
    }
    if (!complete) {
        std::printf("campaign paused; `epea_tool campaign resume --dir %s` continues\n",
                    exec.dir().c_str());
        return obs_rc;
    }
    print_campaign_result(exec, args);
    return obs_rc;
}

int cmd_campaign(const std::vector<std::string>& args) {
    if (args.empty()) return usage();
    const std::string sub = args[0];
    const std::vector<std::string> rest(args.begin() + 1, args.end());
    const auto dir = flag_value(rest, "--dir");
    if (!dir) return usage();

    try {
        if (sub == "status") {
            if (!flags_ok(rest, {"--dir", "--interval"}, {"--metrics", "--follow"})) {
                return usage();
            }
            if (has_flag(rest, "--follow")) {
                // Poll-and-redraw live view: re-read the artifacts every
                // interval until the campaign completes. Plain re-print
                // (no terminal control), so it pipes and logs cleanly.
                double interval_s = 2.0;
                number_flag(rest, "--interval", interval_s);
                if (interval_s <= 0.0) interval_s = 0.1;
                for (;;) {
                    const campaign::CampaignStatus status =
                        campaign::read_status(*dir);
                    std::printf("%s", campaign::render_status(status).c_str());
                    std::fflush(stdout);
                    if (status.complete()) return 0;
                    std::printf("---\n");
                    std::this_thread::sleep_for(std::chrono::duration<double>(
                        interval_s));
                }
            }
            const campaign::CampaignStatus status = campaign::read_status(*dir);
            if (has_flag(rest, "--metrics")) {
                // Reconstruct the campaign's metric snapshot from its
                // checkpointed totals — same mapping as a live run, so
                // the counters agree with a --metrics-out export.
                fi::add_fastpath_metrics(status.fastpath);
                auto& reg = obs::MetricsRegistry::global();
                reg.counter("campaign.shard.runs").add(status.runs);
                reg.counter("campaign.shards.done").add(status.shards_done);
                reg.counter("campaign.runs.saved_adaptive").add(status.saved_runs);
                obs::write_prometheus(std::cout, reg.snapshot());
                return 0;
            }
            std::printf("%s", campaign::render_status(status).c_str());
            return 0;
        }
        if (sub == "resume") {
            if (!flags_ok(rest,
                          {"--dir", "--threads", "--max-shards", "--out",
                           "--trace-out", "--metrics-out", "--timeline-interval",
                           "--timeline-stall"},
                          {"--verbose", "--no-batch"})) {
                return usage();
            }
            campaign::CampaignExecutor exec = campaign::CampaignExecutor::open(*dir);
            return run_and_report(exec, rest, "campaign resume");
        }
        if (sub != "run") return usage();
        if (!flags_ok(rest,
                      {"--dir", "--spec", "--kind", "--cases", "--times", "--shards",
                       "--threads", "--max-shards", "--adaptive", "--min-trials",
                       "--out", "--trace-out", "--metrics-out", "--timeline-interval",
                       "--timeline-stall"},
                      {"--verbose", "--no-batch"})) {
            return usage();
        }

        campaign::CampaignSpec spec;
        if (const auto spec_file = flag_value(rest, "--spec")) {
            std::ifstream in(*spec_file);
            if (!in) {
                std::fprintf(stderr, "cannot read %s\n", spec_file->c_str());
                return 1;
            }
            std::ostringstream buf;
            buf << in.rdbuf();
            spec = campaign::CampaignSpec::from_json(buf.str());
        } else {
            const std::string kind = flag_value(rest, "--kind").value_or("permeability");
            spec = campaign::CampaignSpec::defaults(
                campaign::campaign_kind_from_string(kind));
            std::size_t cases = spec.case_ids.size();
            number_flag(rest, "--cases", cases, 1);
            spec.case_ids.resize(std::min(cases, spec.case_ids.size()));
            number_flag(rest, "--times", spec.times_per_bit);
            number_flag(rest, "--shards", spec.shards);
            spec.adaptive.enabled = flag_value(rest, "--adaptive").has_value();
            number_flag(rest, "--adaptive", spec.adaptive.half_width);
            number_flag(rest, "--min-trials", spec.adaptive.min_trials);
        }
        campaign::CampaignExecutor exec(*dir, std::move(spec));
        return run_and_report(exec, rest, "campaign run");
    } catch (const std::exception& e) {
        std::fprintf(stderr, "campaign: %s\n", e.what());
        return 1;
    }
}

/// Builds the optimizer requested by the `place` flags: --benefit
/// analytic (default; the propagation engine's fixpoint reach) or
/// ground-truth (campaign-backed; memoized under --dir when given, else
/// in memory for this invocation). The permeability
/// matrix backing the analytic mode must outlive the optimizer, hence
/// the out-parameter holder.
opt::PlacementOptimizer make_place_optimizer(
    const std::vector<std::string>& args, opt::ErrorModel model,
    std::unique_ptr<epic::PermeabilityMatrix>& pm_holder,
    const model::SystemModel& system, std::string& mode_out) {
    const std::string benefit = flag_value(args, "--benefit").value_or("analytic");
    if (benefit == "ground-truth") {
        opt::EvaluatorOptions options;
        options.model = model;
        options.dir = flag_value(args, "--dir").value_or("");
        number_flag(args, "--cases", options.cases);
        number_flag(args, "--times", options.times_per_bit);
        number_flag(args, "--shards", options.shards);
        number_flag(args, "--threads", options.threads);
        options.echo_events = has_flag(args, "--verbose");
        options.use_batch = !has_flag(args, "--no-batch");
        mode_out = "ground-truth";
        return opt::PlacementOptimizer::ground_truth(std::move(options));
    }
    if (benefit != "analytic") {
        throw std::invalid_argument("unknown --benefit '" + benefit +
                                    "' (analytic|ground-truth)");
    }
    pm_holder = std::make_unique<epic::PermeabilityMatrix>(exp::paper_matrix(system));
    mode_out = "analytic";
    return analytic::make_engine_optimizer(*pm_holder, model);
}

int cmd_place(const std::vector<std::string>& args) {
    if (args.empty()) return usage();
    const std::string sub = args[0];
    const std::vector<std::string> rest(args.begin() + 1, args.end());
    if (sub != "optimize" && sub != "frontier" && sub != "explain") return usage();
    if (!flags_ok(rest,
                  {"--error-model", "--benefit", "--budget-memory", "--budget-time",
                   "--dir", "--cases", "--times", "--shards", "--threads",
                   "--out-prefix", "--trace-out", "--metrics-out"},
                  {"--verbose", "--no-batch", "--json", "--no-prune"})) {
        return usage();
    }

    try {
        const opt::ErrorModel model = opt::error_model_from_string(
            flag_value(rest, "--error-model").value_or("input"));
        static const model::SystemModel system = target::make_arrestment_model();
        std::unique_ptr<epic::PermeabilityMatrix> pm_holder;
        std::string mode_name;
        opt::PlacementOptimizer optimizer =
            make_place_optimizer(rest, model, pm_holder, system, mode_name);
        // Certificate-derived pruning for the matrix-backed benefit modes
        // (results are identical either way; --no-prune is the CI
        // soundness gate's unpruned arm). Ground truth never gets hints —
        // measured coverage may disagree with the structural graph.
        if (pm_holder && !has_flag(rest, "--no-prune")) {
            prove::attach_structural_hints(optimizer, *pm_holder, model);
        }
        const char* mode = mode_name.c_str();

        ObsCli obs_cli(rest, "place " + sub);
        {
            util::JsonObject config;
            config.emplace("error_model", util::JsonValue(opt::to_string(model)));
            config.emplace("mode", util::JsonValue(mode));
            obs_cli.manifest().config = std::move(config);
            obs_cli.manifest().fastpath = !has_flag(rest, "--no-batch");
        }

        if (sub == "optimize") {
            opt::SearchOptions options;
            number_flag(rest, "--budget-memory", options.budget.memory);
            number_flag(rest, "--budget-time", options.budget.time);
            const opt::SearchResult result = optimizer.optimize(options);
            if (has_flag(rest, "--json")) {
                // Shared reporter: byte-identical to POST /v1/place/optimize.
                std::fputs(opt::optimize_result_json(result, optimizer.candidates(),
                                                     model, mode_name)
                               .c_str(),
                           stdout);
                return obs_cli.finish();
            }
            std::printf("placement (%s, %s model, %s): {%s}\n", mode,
                        opt::to_string(model), result.exact ? "exact" : "greedy",
                        opt::canonical_subset(
                            result.selected_names(optimizer.candidates()))
                            .c_str());
            std::printf("  coverage %.4f, memory %.0f B, time %.0f cmp/tick, "
                        "%zu benefit evaluations (%zu nodes, %zu structural "
                        "prunes)\n",
                        result.coverage, result.cost.memory, result.cost.time,
                        result.evaluations, result.nodes,
                        result.structural_prunes);
            return obs_cli.finish();
        }

        const opt::Frontier frontier = optimizer.frontier();
        if (sub == "explain") {
            std::printf("%s", optimizer.explain(frontier).c_str());
        } else if (const auto prefix = flag_value(rest, "--out-prefix")) {
            std::ofstream csv(*prefix + ".csv");
            std::ofstream json(*prefix + ".json");
            std::ofstream dot(*prefix + ".dot");
            if (!csv || !json || !dot) {
                std::fprintf(stderr, "cannot write %s.{csv,json,dot}\n",
                             prefix->c_str());
                return 1;
            }
            opt::write_frontier_csv(csv, frontier);
            opt::write_frontier_json(json, frontier);
            opt::write_frontier_dot(dot, frontier,
                                    std::string("EA placement frontier (") +
                                        opt::to_string(model) + " model, " + mode +
                                        ")");
            std::fprintf(stderr, "wrote %s.{csv,json,dot}\n", prefix->c_str());
        } else {
            opt::write_frontier_csv(std::cout, frontier);
        }
        if (optimizer.campaigns_executed() > 0 || !pm_holder) {
            std::fprintf(stderr, "ground truth: %zu campaign(s) executed\n",
                         optimizer.campaigns_executed());
        }
        return obs_cli.finish();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "place: %s\n", e.what());
        return 1;
    }
}

/// `obs metrics DIR` prints DIR/metrics.json (or the manifest's metric
/// snapshot) as Prometheus text; `obs trace DIR` summarizes
/// DIR/trace.json per span name. Both read artifacts a campaign run left
/// behind — no live process needed.
std::optional<util::JsonValue> read_json_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    return util::JsonValue::parse(buf.str());
}

/// Phase attribution for `obs report` (DESIGN.md §15): every span name
/// maps to exactly one phase, and time is attributed *exclusively* (a
/// span's self time, minus its contained children on the same track), so
/// the phase totals sum to the union of traced time by construction.
const char* report_phase_of(const std::string& name) {
    if (name == "fi.golden_capture") return "golden-build";
    if (name == "fi.batch_flush") return "batch-kernel";
    if (name == "fi.run" || name == "sim.run") return "replay";
    if (name == "campaign.checkpoint") return "checkpoint";
    if (name == "campaign.merge") return "merge";
    if (name.rfind("campaign.", 0) == 0 || name.rfind("epic.", 0) == 0 ||
        name.rfind("exp.", 0) == 0 || name.rfind("opt.", 0) == 0) {
        return "orchestration";
    }
    return "other";
}

/// `epea_tool obs report DIR` — offline critical-path analysis over the
/// run artifacts (trace.json + metrics.json/manifest.json +
/// timeline.jsonl): phase breakdown on exclusive span time, per-worker
/// utilization, top-N slowest runs, lane-retirement counters and shard
/// wall-clock quantiles.
int cmd_obs_report(const std::string& dir, bool as_json, std::size_t top_n) {
    const auto trace = read_json_file(dir + "/trace.json");
    if (!trace) {
        std::fprintf(stderr, "obs: cannot read %s/trace.json\n", dir.c_str());
        return 1;
    }

    struct Ev {
        std::string name;
        std::int64_t tid = 0;
        double ts_us = 0.0;
        double dur_us = 0.0;
        double child_us = 0.0;  ///< direct children's duration (same track)
    };
    std::map<std::int64_t, std::string> track_names;
    std::map<std::int64_t, std::vector<Ev>> by_track;
    for (const util::JsonValue& ev : trace->at("traceEvents").as_array()) {
        const std::string& ph = ev.at("ph").as_string();
        if (ph == "M") {
            track_names[ev.at("tid").as_int()] = ev.at("args").at("name").as_string();
        } else if (ph == "X") {
            Ev e;
            e.name = ev.at("name").as_string();
            e.tid = ev.at("tid").as_int();
            e.ts_us = ev.at("ts").as_double();
            e.dur_us = ev.at("dur").as_double();
            by_track[e.tid].push_back(std::move(e));
        }
    }

    // Exclusive time per span: within one track, sort by (start asc,
    // duration desc) so parents precede the children they contain, then
    // charge each span's duration to its innermost open ancestor.
    struct PhaseAgg {
        std::uint64_t spans = 0;
        double exclusive_us = 0.0;
    };
    std::map<std::string, PhaseAgg> phases;
    struct WorkerAgg {
        double busy_us = 0.0;
        double first_us = 0.0;
        double last_us = 0.0;
        bool seen = false;
    };
    std::map<std::int64_t, WorkerAgg> workers;
    std::vector<const Ev*> slowest;
    double total_exclusive_us = 0.0;
    std::size_t spans = 0;
    for (auto& [tid, evs] : by_track) {
        std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
            if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
            return a.dur_us > b.dur_us;
        });
        std::vector<Ev*> stack;
        for (Ev& e : evs) {
            while (!stack.empty() &&
                   stack.back()->ts_us + stack.back()->dur_us <= e.ts_us) {
                stack.pop_back();
            }
            if (!stack.empty()) stack.back()->child_us += e.dur_us;
            stack.push_back(&e);
        }
        WorkerAgg& w = workers[tid];
        for (const Ev& e : evs) {
            ++spans;
            const double exclusive = std::max(0.0, e.dur_us - e.child_us);
            total_exclusive_us += exclusive;
            PhaseAgg& agg = phases[report_phase_of(e.name)];
            ++agg.spans;
            agg.exclusive_us += exclusive;
            w.busy_us += exclusive;
            if (!w.seen || e.ts_us < w.first_us) w.first_us = e.ts_us;
            if (!w.seen || e.ts_us + e.dur_us > w.last_us) {
                w.last_us = e.ts_us + e.dur_us;
            }
            w.seen = true;
            if (e.name == "fi.run" || e.name == "sim.run") {
                slowest.push_back(&e);
            }
        }
    }
    std::sort(slowest.begin(), slowest.end(), [](const Ev* a, const Ev* b) {
        if (a->dur_us != b->dur_us) return a->dur_us > b->dur_us;
        if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
        return a->tid < b->tid;
    });
    if (slowest.size() > top_n) slowest.resize(top_n);

    // Metrics side: lane-retirement counters and the shard wall-clock
    // histogram, read like `obs metrics` (metrics.json preferred, the
    // manifest's embedded snapshot as fallback).
    obs::MetricsSnapshot snapshot;
    if (const auto metrics = read_json_file(dir + "/metrics.json")) {
        snapshot = obs::metrics_from_json(*metrics);
    } else if (const auto manifest = read_json_file(dir + "/manifest.json")) {
        snapshot = obs::metrics_from_json(manifest->at("metrics"));
    }
    const auto lane_counter = [&snapshot](const char* name) {
        return snapshot.counter(name);
    };
    const obs::MetricSample* shard_wall = snapshot.find("campaign.shard.wall_seconds");

    // Timeline summary (sample count + stall flags), torn-tail tolerant.
    std::size_t timeline_samples = 0;
    std::uint64_t stall_flags = 0;
    {
        std::ifstream timeline(dir + "/timeline.jsonl", std::ios::binary);
        std::map<std::int64_t, bool> was_stalled;
        std::string line;
        while (std::getline(timeline, line)) {
            if (line.empty()) continue;
            try {
                const util::JsonValue sample = util::JsonValue::parse(line);
                if (sample.at("type").as_string() != "sample") continue;
                ++timeline_samples;
                if (const util::JsonValue* ws = sample.find("workers")) {
                    for (const util::JsonValue& w : ws->as_array()) {
                        const std::int64_t id = w.at("worker").as_int();
                        const bool stalled = w.at("stalled").as_bool();
                        if (stalled && !was_stalled[id]) ++stall_flags;
                        was_stalled[id] = stalled;
                    }
                }
            } catch (const std::runtime_error&) {
            }
        }
    }

    if (as_json) {
        util::JsonObject root;
        root.emplace("dir", util::JsonValue(dir));
        root.emplace("spans", util::JsonValue(spans));
        root.emplace("total_exclusive_us", util::JsonValue(total_exclusive_us));
        util::JsonObject phase_obj;
        double phase_total = 0.0;
        for (const auto& [name, agg] : phases) {
            util::JsonObject p;
            p.emplace("spans", util::JsonValue(agg.spans));
            p.emplace("exclusive_us", util::JsonValue(agg.exclusive_us));
            phase_obj.emplace(name, util::JsonValue(std::move(p)));
            phase_total += agg.exclusive_us;
        }
        root.emplace("phases", util::JsonValue(std::move(phase_obj)));
        root.emplace("phase_total_us", util::JsonValue(phase_total));
        util::JsonArray worker_arr;
        for (const auto& [tid, w] : workers) {
            util::JsonObject wo;
            wo.emplace("tid", util::JsonValue(tid));
            const auto name_it = track_names.find(tid);
            wo.emplace("name", util::JsonValue(name_it != track_names.end()
                                                   ? name_it->second
                                                   : std::string()));
            wo.emplace("busy_us", util::JsonValue(w.busy_us));
            const double span_us = w.last_us - w.first_us;
            wo.emplace("span_us", util::JsonValue(span_us));
            wo.emplace("utilization",
                       util::JsonValue(span_us > 0.0 ? w.busy_us / span_us : 0.0));
            worker_arr.push_back(util::JsonValue(std::move(wo)));
        }
        root.emplace("workers", util::JsonValue(std::move(worker_arr)));
        util::JsonArray slow_arr;
        for (const Ev* e : slowest) {
            util::JsonObject so;
            so.emplace("name", util::JsonValue(e->name));
            so.emplace("tid", util::JsonValue(e->tid));
            so.emplace("ts_us", util::JsonValue(e->ts_us));
            so.emplace("dur_us", util::JsonValue(e->dur_us));
            slow_arr.push_back(util::JsonValue(std::move(so)));
        }
        root.emplace("slowest_runs", util::JsonValue(std::move(slow_arr)));
        util::JsonObject lanes;
        lanes.emplace("launched",
                      util::JsonValue(lane_counter("fi.lanes.launched")));
        lanes.emplace("retired_pruned",
                      util::JsonValue(lane_counter("fi.lanes.retired_pruned")));
        lanes.emplace("retired_end",
                      util::JsonValue(lane_counter("fi.lanes.retired_end")));
        lanes.emplace("retired_sealed",
                      util::JsonValue(lane_counter("fi.lanes.retired_sealed")));
        lanes.emplace("retired_merged",
                      util::JsonValue(lane_counter("fi.lanes.retired_merged")));
        root.emplace("lanes", util::JsonValue(std::move(lanes)));
        util::JsonObject quants;
        if (shard_wall != nullptr) {
            quants.emplace("p50", util::JsonValue(obs::quantile_from_buckets(
                                      shard_wall->bounds,
                                      shard_wall->bucket_counts, 0.5)));
            quants.emplace("p90", util::JsonValue(obs::quantile_from_buckets(
                                      shard_wall->bounds,
                                      shard_wall->bucket_counts, 0.9)));
            quants.emplace("p99", util::JsonValue(obs::quantile_from_buckets(
                                      shard_wall->bounds,
                                      shard_wall->bucket_counts, 0.99)));
        }
        root.emplace("shard_wall_quantiles_s", util::JsonValue(std::move(quants)));
        util::JsonObject tl;
        tl.emplace("samples", util::JsonValue(timeline_samples));
        tl.emplace("stall_flags", util::JsonValue(stall_flags));
        root.emplace("timeline", util::JsonValue(std::move(tl)));
        std::printf("%s\n", util::JsonValue(std::move(root)).dump().c_str());
        return 0;
    }

    std::printf("obs report: %s (%zu spans, %.3f ms traced)\n", dir.c_str(),
                spans, total_exclusive_us / 1000.0);
    std::printf("phase breakdown (exclusive time):\n");
    for (const auto& [name, agg] : phases) {
        const double share = total_exclusive_us > 0.0
                                 ? 100.0 * agg.exclusive_us / total_exclusive_us
                                 : 0.0;
        std::printf("  %-14s %8llu spans  %12.3f ms  %5.1f%%\n", name.c_str(),
                    static_cast<unsigned long long>(agg.spans),
                    agg.exclusive_us / 1000.0, share);
    }
    std::printf("worker utilization:\n");
    for (const auto& [tid, w] : workers) {
        const auto name_it = track_names.find(tid);
        const double span_us = w.last_us - w.first_us;
        std::printf("  %-14s busy %10.3f ms of %10.3f ms  (%.1f%%)\n",
                    name_it != track_names.end() ? name_it->second.c_str()
                                                 : ("tid-" + std::to_string(tid)).c_str(),
                    w.busy_us / 1000.0, span_us / 1000.0,
                    span_us > 0.0 ? 100.0 * w.busy_us / span_us : 0.0);
    }
    if (!slowest.empty()) {
        std::printf("top %zu slowest runs:\n", slowest.size());
        for (const Ev* e : slowest) {
            std::printf("  %-10s tid %lld  at %12.3f ms  dur %10.3f ms\n",
                        e->name.c_str(), static_cast<long long>(e->tid),
                        e->ts_us / 1000.0, e->dur_us / 1000.0);
        }
    }
    if (lane_counter("fi.lanes.launched") > 0) {
        std::printf("batch lanes: %llu launched / %llu pruned / %llu to end / "
                    "%llu sealed / %llu merged\n",
                    static_cast<unsigned long long>(lane_counter("fi.lanes.launched")),
                    static_cast<unsigned long long>(
                        lane_counter("fi.lanes.retired_pruned")),
                    static_cast<unsigned long long>(
                        lane_counter("fi.lanes.retired_end")),
                    static_cast<unsigned long long>(
                        lane_counter("fi.lanes.retired_sealed")),
                    static_cast<unsigned long long>(
                        lane_counter("fi.lanes.retired_merged")));
    }
    if (shard_wall != nullptr) {
        std::printf("shard wall-clock quantiles: p50 %.2fs  p90 %.2fs  p99 %.2fs\n",
                    obs::quantile_from_buckets(shard_wall->bounds,
                                               shard_wall->bucket_counts, 0.5),
                    obs::quantile_from_buckets(shard_wall->bounds,
                                               shard_wall->bucket_counts, 0.9),
                    obs::quantile_from_buckets(shard_wall->bounds,
                                               shard_wall->bucket_counts, 0.99));
    }
    if (timeline_samples > 0) {
        std::printf("timeline: %zu samples, %llu stall flag(s)\n",
                    timeline_samples,
                    static_cast<unsigned long long>(stall_flags));
    }
    return 0;
}

int cmd_obs(const std::vector<std::string>& args) {
    if (args.size() < 2) return usage();
    const std::string sub = args[0];
    const std::vector<std::string> rest(args.begin() + 1, args.end());
    if (sub == "report") {
        if (!flags_ok(rest, {"--top"}, {"--json"}, 1)) return usage();
    } else if (!flags_ok(rest, {}, {}, 1)) {
        return usage();
    }
    // The DIR positional may appear before or after the report flags.
    std::string dir;
    for (std::size_t i = 0; i < rest.size(); ++i) {
        if (rest[i] == "--top") {
            ++i;
            continue;
        }
        if (rest[i].rfind("--", 0) == 0) continue;
        dir = rest[i];
        break;
    }
    if (dir.empty()) return usage();

    try {
        if (sub == "report") {
            std::size_t top_n = 5;
            number_flag(rest, "--top", top_n);
            return cmd_obs_report(dir, has_flag(rest, "--json"), top_n);
        }
        if (sub == "metrics") {
            obs::MetricsSnapshot snapshot;
            if (const auto metrics = read_json_file(dir + "/metrics.json")) {
                snapshot = obs::metrics_from_json(*metrics);
            } else if (const auto manifest = read_json_file(dir + "/manifest.json")) {
                snapshot = obs::metrics_from_json(manifest->at("metrics"));
            } else {
                std::fprintf(stderr, "obs: no metrics.json or manifest.json in %s\n",
                             dir.c_str());
                return 1;
            }
            obs::write_prometheus(std::cout, snapshot);
            // Ring-overflow accounting (manifest v3): surface per-track
            // dropped-span counts so silent trace truncation is visible
            // from the same command that shows the metrics.
            if (const auto manifest = read_json_file(dir + "/manifest.json")) {
                if (const util::JsonValue* dropped = manifest->find("dropped_spans")) {
                    for (const auto& [track, count] : dropped->as_object()) {
                        std::printf("# dropped spans: %s %lld\n", track.c_str(),
                                    static_cast<long long>(count.as_int()));
                    }
                }
            }
            return 0;
        }
        if (sub != "trace") return usage();
        const auto trace = read_json_file(dir + "/trace.json");
        if (!trace) {
            std::fprintf(stderr, "obs: cannot read %s/trace.json\n", dir.c_str());
            return 1;
        }
        struct NameAgg {
            std::uint64_t count = 0;
            double total_us = 0.0;
        };
        std::map<std::string, NameAgg> by_name;
        std::map<std::int64_t, std::string> track_names;
        std::size_t spans = 0;
        for (const util::JsonValue& ev : trace->at("traceEvents").as_array()) {
            const std::string& ph = ev.at("ph").as_string();
            if (ph == "M") {
                track_names[ev.at("tid").as_int()] =
                    ev.at("args").at("name").as_string();
            } else if (ph == "X") {
                ++spans;
                NameAgg& agg = by_name[ev.at("name").as_string()];
                ++agg.count;
                agg.total_us += ev.at("dur").as_double();
            }
        }
        std::printf("%s/trace.json: %zu spans\n", dir.c_str(), spans);
        for (const auto& [tid, name] : track_names) {
            std::printf("  track %lld: %s\n", static_cast<long long>(tid),
                        name.c_str());
        }
        for (const auto& [name, agg] : by_name) {
            std::printf("  %-24s %8llu spans  %12.3f ms total\n", name.c_str(),
                        static_cast<unsigned long long>(agg.count),
                        agg.total_us / 1000.0);
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "obs: %s\n", e.what());
        return 1;
    }
}

/// `epea_tool lint <target>` — the static verification layer (DESIGN.md
/// §11). Lints artifacts without executing anything: the propagation
/// model, a permeability matrix CSV, an EA placement and its frontier
/// export, a campaign directory, and the source tree's metric names.
/// Exit 0 when clean (warnings allowed), 2 when any error-severity
/// finding — or any finding at all under --strict — is reported.
/// `epea_tool check` — the semantic placement verifier (DESIGN.md §16).
/// Emits a machine-checkable cut certificate or a concrete witness path,
/// plus shadowing facts, containment regions and per-output dominator
/// chains, for a placement on a model. The graph comes from a
/// permeability matrix when one exists (paper Table 1 for arrestment, or
/// --matrix) and from the bare module structure otherwise (tank).
int cmd_check(const std::vector<std::string>& args) {
    if (args.empty() || args[0].rfind("--", 0) == 0) return usage();
    const std::string target_name = args[0];
    if (!flags_ok(args, {"--matrix", "--placement", "--error-model", "--out"},
                  {"--json"}, 1)) {
        return usage();
    }

    try {
        model::SystemModel system;
        if (target_name == "arrestment") {
            system = target::make_arrestment_model();
        } else if (target_name == "tank") {
            system = alt::make_tank_model();
        } else {
            std::ifstream in(target_name);
            if (!in) {
                std::fprintf(stderr, "cannot read %s\n", target_name.c_str());
                return 1;
            }
            system = epic::load_system_text(in);
        }

        std::unique_ptr<epic::PermeabilityMatrix> pm;
        if (const auto mf = flag_value(args, "--matrix")) {
            std::ifstream in(*mf);
            if (!in) {
                std::fprintf(stderr, "cannot read %s\n", mf->c_str());
                return 1;
            }
            pm = std::make_unique<epic::PermeabilityMatrix>(
                epic::load_matrix_csv(in, system));
        } else if (target_name == "arrestment") {
            pm = std::make_unique<epic::PermeabilityMatrix>(
                exp::paper_matrix(system));
        }
        const prove::SignalGraph graph =
            pm ? prove::SignalGraph::from_matrix(*pm)
               : prove::SignalGraph::from_model(system);
        const std::string graph_source = pm ? "matrix" : "structure";

        // Placement: a reference-set label, an explicit comma list, or —
        // by default — every EA-carrying candidate signal of the model.
        std::vector<std::string> names;
        const auto placement_flag = flag_value(args, "--placement");
        if (placement_flag &&
            (*placement_flag == "EH-set" || *placement_flag == "PA-set" ||
             *placement_flag == "EXT-set")) {
            for (const opt::ReferenceSet& set : opt::arrestment_reference_sets()) {
                if (set.label == *placement_flag) names = set.signals;
            }
        } else if (placement_flag) {
            std::istringstream split(*placement_flag);
            for (std::string name; std::getline(split, name, ',');) {
                if (!name.empty()) names.push_back(name);
            }
        } else {
            for (const model::SignalId id : epic::ea_candidate_signals(system)) {
                names.push_back(system.signal_name(id));
            }
        }
        std::vector<model::SignalId> ids;
        for (const std::string& name : names) ids.push_back(system.signal_id(name));

        const std::string em = flag_value(args, "--error-model").value_or("input");
        if (em != "input" && em != "severe") {
            throw std::invalid_argument("unknown --error-model '" + em +
                                        "' (input|severe)");
        }
        const prove::SiteModel sites =
            em == "input" ? prove::SiteModel::kInput : prove::SiteModel::kSevere;

        const prove::Prover prover(graph);
        const prove::PlacementCheck check = prover.check(ids, sites);

        const std::string rendered =
            has_flag(args, "--json")
                ? prove::check_json(graph, check, target_name, graph_source)
                          .dump() +
                      "\n"
                : prove::check_text(check, target_name);
        if (const auto out = flag_value(args, "--out")) {
            std::ofstream file(*out);
            if (!file) {
                std::fprintf(stderr, "cannot write %s\n", out->c_str());
                return 1;
            }
            file << rendered;
        } else {
            std::fputs(rendered.c_str(), stdout);
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "check: %s\n", e.what());
        return 1;
    }
}

int cmd_lint(const std::vector<std::string>& args) {
    if (args.empty()) return usage();
    const std::string target = args[0];
    const std::vector<std::string> rest(args.begin() + 1, args.end());

    if (target == "rules") {
        if (!flags_ok(rest, {}, {})) return usage();
        for (const analysis::RuleInfo& rule : analysis::rule_catalog()) {
            std::printf("%s %-7s %-28s %s\n", rule.id,
                        analysis::to_string(rule.severity), rule.title,
                        rule.rationale);
        }
        return 0;
    }

    const bool all = target == "all";
    if (!all && target != "model" && target != "matrix" &&
        target != "placement" && target != "campaign" && target != "metrics") {
        std::fprintf(stderr, "epea_tool: unknown lint target '%s'\n",
                     target.c_str());
        return usage();
    }
    if (!flags_ok(rest,
                  {"--model", "--matrix", "--ea", "--frontier-dot",
                   "--campaign-dir", "--src", "--out"},
                  {"--json", "--strict", "--full-coverage"})) {
        return usage();
    }

    static const model::SystemModel system = target::make_arrestment_model();
    analysis::Report report;

    // -- propagation model -------------------------------------------------
    if (all || target == "model") {
        if (const auto file = flag_value(rest, "--model")) {
            std::ifstream in(*file);
            if (!in) {
                std::fprintf(stderr, "cannot read %s\n", file->c_str());
                return 1;
            }
            report.merge(analysis::lint_model_text(in, "model:" + *file));
        } else {
            report.merge(analysis::lint_model(system, "model:arrestment"));
        }
    }

    // -- permeability matrix ----------------------------------------------
    const auto matrix_file = flag_value(rest, "--matrix");
    if (all || target == "matrix") {
        if (matrix_file) {
            std::ifstream in(*matrix_file);
            if (!in) {
                std::fprintf(stderr, "cannot read %s\n", matrix_file->c_str());
                return 1;
            }
            report.merge(analysis::lint_matrix_csv(in, system,
                                                   "matrix:" + *matrix_file));
        } else {
            report.merge(analysis::lint_matrix(exp::paper_matrix(system),
                                               "matrix:paper-table-1"));
        }
    }

    // -- EA placements and frontier exports --------------------------------
    if (all || target == "placement") {
        // The matrix provides exposure values for W043; a broken --matrix
        // file already produced error findings above, so fall back to the
        // paper matrix for placement checks rather than failing twice.
        std::unique_ptr<epic::PermeabilityMatrix> pm;
        if (matrix_file) {
            std::ifstream in(*matrix_file);
            try {
                if (in) {
                    pm = std::make_unique<epic::PermeabilityMatrix>(
                        epic::load_matrix_csv(in, system));
                }
            } catch (const std::exception&) {
                pm.reset();
            }
        }
        if (!pm) {
            pm = std::make_unique<epic::PermeabilityMatrix>(
                exp::paper_matrix(system));
        }

        const bool full_coverage = has_flag(rest, "--full-coverage");
        if (const auto list = flag_value(rest, "--ea")) {
            std::vector<std::string> names;
            std::istringstream split(*list);
            for (std::string name; std::getline(split, name, ',');) {
                if (!name.empty()) names.push_back(name);
            }
            report.merge(analysis::lint_placement(*pm, names, "placement:--ea"));
            report.merge(analysis::lint_placement_structure(
                *pm, names, "placement:--ea", full_coverage));
        } else {
            for (const opt::ReferenceSet& set : opt::arrestment_reference_sets()) {
                report.merge(analysis::lint_placement(*pm, set.signals,
                                                      "placement:" + set.label));
                report.merge(analysis::lint_placement_structure(
                    *pm, set.signals, "placement:" + set.label, full_coverage));
            }
        }

        std::string frontier_path =
            flag_value(rest, "--frontier-dot").value_or("");
        if (frontier_path.empty() && all) {
            // `lint all` from the repo root checks the committed export.
            const char* committed = "frontier_placement_input.dot";
            std::ifstream probe(committed);
            if (probe) frontier_path = committed;
        }
        if (!frontier_path.empty()) {
            std::ifstream in(frontier_path);
            if (!in) {
                std::fprintf(stderr, "cannot read %s\n", frontier_path.c_str());
                return 1;
            }
            const opt::PlacementOptimizer optimizer =
                analytic::make_engine_optimizer(*pm, opt::ErrorModel::kInput);
            std::vector<std::string> labels;
            for (const opt::ReferenceSet& set : opt::arrestment_reference_sets()) {
                labels.push_back(set.label);
            }
            report.merge(analysis::lint_frontier_dot(
                in, optimizer.candidates(), labels,
                "frontier:" + frontier_path));
        }
    }

    // -- campaign directory ------------------------------------------------
    const auto campaign_dir = flag_value(rest, "--campaign-dir");
    if (target == "campaign" && !campaign_dir) {
        std::fprintf(stderr, "epea_tool: lint campaign needs --campaign-dir\n");
        return usage();
    }
    if ((all || target == "campaign") && campaign_dir) {
        report.merge(analysis::lint_campaign_dir(*campaign_dir));
    }

    // -- source tree -------------------------------------------------------
    if (all || target == "metrics") {
        const std::string root = flag_value(rest, "--src").value_or(".");
        std::size_t names_seen = 0;
        report.merge(analysis::lint_metric_names(root, &names_seen));
        if (target == "metrics" && !has_flag(rest, "--json")) {
            std::fprintf(stderr,
                         "%zu distinct metric names scanned under %s\n",
                         names_seen, root.c_str());
        }
    }

    const auto emit = [&rest, &report](std::ostream& os) {
        if (has_flag(rest, "--json")) {
            analysis::write_json(os, report);
        } else {
            analysis::write_text(os, report);
        }
    };
    if (const auto out = flag_value(rest, "--out")) {
        std::ofstream file(*out);
        if (!file) {
            std::fprintf(stderr, "cannot write %s\n", out->c_str());
            return 1;
        }
        emit(file);
    } else {
        emit(std::cout);
    }
    return report.exit_code(has_flag(rest, "--strict"));
}

std::string bound_str(const analytic::Bound& b) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.4f [%.4f, %.4f]", b.point, b.lo, b.hi);
    return buf;
}

/// `analytic predict` — composed permeability / exposure / impact with
/// error bars, from a matrix CSV (default: the paper's Table 1), with no
/// injection run at all.
int cmd_analytic_predict(const std::vector<std::string>& args) {
    if (!flags_ok(args, {"--matrix", "--source", "--sink"}, {"--json"})) {
        return usage();
    }
    static const model::SystemModel system = target::make_arrestment_model();
    std::unique_ptr<epic::PermeabilityMatrix> pm;
    if (const auto file = flag_value(args, "--matrix")) {
        std::ifstream in(*file);
        if (!in) {
            std::fprintf(stderr, "cannot read %s\n", file->c_str());
            return 1;
        }
        pm = std::make_unique<epic::PermeabilityMatrix>(
            epic::load_matrix_csv(in, system));
    } else {
        pm = std::make_unique<epic::PermeabilityMatrix>(exp::paper_matrix(system));
    }
    const analytic::Engine engine(*pm);
    const std::string sink_name = flag_value(args, "--sink").value_or("TOC2");
    const model::SignalId sink = system.signal_id(sink_name);

    if (const auto source = flag_value(args, "--source")) {
        const analytic::Bound b =
            engine.permeability(system.signal_id(*source), sink);
        if (has_flag(args, "--json")) {
            // Shared reporter: byte-identical to POST /v1/analytic/predict.
            std::fputs(analytic::predict_pair_json(*source, sink_name, b,
                                                   !engine.any_unconverged())
                           .c_str(),
                       stdout);
        } else {
            std::printf("P(%s -> %s) = %s%s\n", source->c_str(), sink_name.c_str(),
                        bound_str(b).c_str(),
                        engine.any_unconverged() ? "  (iteration cap hit)" : "");
        }
        return 0;
    }

    if (has_flag(args, "--json")) {
        std::vector<analytic::PredictRow> rows;
        for (const model::SignalId s : system.all_signals()) {
            analytic::PredictRow row;
            row.signal = system.signal_name(s);
            row.exposure = engine.exposure(s);
            if (s != sink) row.impact = engine.permeability(s, sink);
            rows.push_back(std::move(row));
        }
        std::fputs(analytic::predict_profile_json(sink_name, rows,
                                                  !engine.any_unconverged())
                       .c_str(),
                   stdout);
        return 0;
    }

    util::TextTable table({"Signal", "X_s [95% CI]", "impact -> " + sink_name},
                          {util::Align::kLeft, util::Align::kLeft,
                           util::Align::kLeft});
    for (const model::SignalId s : system.all_signals()) {
        const auto x = engine.exposure(s);
        table.add_row({system.signal_name(s), x ? bound_str(*x) : "-",
                       s == sink ? "-"
                                 : bound_str(engine.permeability(s, sink))});
    }
    std::cout << table;
    std::printf("# %zu fixpoint solve(s), %s\n", engine.solves(),
                engine.any_unconverged() ? "iteration cap hit" : "all converged");
    return 0;
}

/// `analytic diff-plan` — module-level diff of an edited model against a
/// baseline, provenance checks on the cached campaign artifacts, a
/// minimal re-injection CampaignSpec, and (optionally) the spliced
/// merged matrix.
int cmd_analytic_diff_plan(const std::vector<std::string>& args) {
    if (!flags_ok(args,
                  {"--model", "--base-model", "--dir", "--spec-out", "--cached",
                   "--fresh", "--merged-out"},
                  {"--json"})) {
        return usage();
    }
    const auto model_file = flag_value(args, "--model");
    if (!model_file) {
        std::fprintf(stderr, "epea_tool: analytic diff-plan needs --model FILE\n");
        return usage();
    }
    std::ifstream model_in(*model_file);
    if (!model_in) {
        std::fprintf(stderr, "cannot read %s\n", model_file->c_str());
        return 1;
    }
    const model::SystemModel edited = epic::load_system_text(model_in);
    model::SystemModel base = target::make_arrestment_model();
    if (const auto base_file = flag_value(args, "--base-model")) {
        std::ifstream base_in(*base_file);
        if (!base_in) {
            std::fprintf(stderr, "cannot read %s\n", base_file->c_str());
            return 1;
        }
        base = epic::load_system_text(base_in);
    }
    const analytic::DeltaPlan plan = analytic::diff_models(base, edited);

    // Base spec: the cached campaign's own spec.json when a directory is
    // given (so the delta campaign reuses its sizing and seeds), the
    // permeability defaults otherwise.
    campaign::CampaignSpec base_spec =
        campaign::CampaignSpec::defaults(campaign::CampaignKind::kPermeability);
    const auto dir = flag_value(args, "--dir");
    analytic::ProvenanceCheck provenance;
    if (dir) {
        std::ifstream spec_in(*dir + "/spec.json");
        if (!spec_in) {
            provenance.ok = false;
            provenance.notes.push_back("cannot read " + *dir + "/spec.json");
        } else {
            std::ostringstream buf;
            buf << spec_in.rdbuf();
            base_spec = campaign::CampaignSpec::from_json(buf.str());
            const analytic::ProvenanceCheck manifest =
                analytic::check_manifest(*dir + "/manifest.json", base_spec);
            const analytic::ProvenanceCheck cache =
                analytic::check_subset_cache(*dir + "/subset_cache.json");
            provenance.ok = manifest.ok && cache.ok;
            provenance.notes.insert(provenance.notes.end(),
                                    manifest.notes.begin(), manifest.notes.end());
            provenance.notes.insert(provenance.notes.end(), cache.notes.begin(),
                                    cache.notes.end());
        }
    }
    const campaign::CampaignSpec delta_spec =
        analytic::to_campaign_spec(plan, base_spec);

    if (has_flag(args, "--json")) {
        util::JsonObject o;
        o.emplace("plan", plan.to_json());
        o.emplace("base_model_hash", util::JsonValue(analytic::model_hash(base)));
        o.emplace("edited_model_hash",
                  util::JsonValue(analytic::model_hash(edited)));
        if (dir) {
            util::JsonObject p;
            p.emplace("ok", util::JsonValue(provenance.ok));
            util::JsonArray notes;
            for (const std::string& n : provenance.notes) notes.emplace_back(n);
            p.emplace("notes", util::JsonValue(std::move(notes)));
            o.emplace("provenance", util::JsonValue(std::move(p)));
        }
        std::printf("%s\n", util::JsonValue(std::move(o)).dump().c_str());
    } else {
        const auto list = [](const char* label,
                             const std::vector<std::string>& names) {
            std::printf("%s (%zu):", label, names.size());
            for (const std::string& n : names) std::printf(" %s", n.c_str());
            std::printf("\n");
        };
        list("unchanged", plan.unchanged);
        list("changed", plan.changed);
        list("added", plan.added);
        list("removed", plan.removed);
        std::printf(plan.empty()
                        ? "empty plan: every cached module row is still valid\n"
                        : "delta campaign re-injects %zu module(s)\n",
                    plan.stale_modules().size());
        for (const std::string& n : provenance.notes) {
            std::fprintf(stderr, "provenance: %s\n", n.c_str());
        }
    }
    if (dir && !provenance.ok) {
        std::fprintf(stderr,
                     "analytic: provenance check failed; cached results are "
                     "untrustworthy — run a full campaign instead of a delta\n");
        return 1;
    }

    if (const auto spec_out = flag_value(args, "--spec-out")) {
        std::ofstream file(*spec_out);
        if (!file) {
            std::fprintf(stderr, "cannot write %s\n", spec_out->c_str());
            return 1;
        }
        file << delta_spec.to_json() << "\n";
        std::fprintf(stderr, "wrote %s\n", spec_out->c_str());
    }

    const auto cached_file = flag_value(args, "--cached");
    const auto fresh_file = flag_value(args, "--fresh");
    if (cached_file || fresh_file) {
        const auto merged_out = flag_value(args, "--merged-out");
        if (!cached_file || !fresh_file || !merged_out) {
            std::fprintf(stderr,
                         "epea_tool: splicing needs --cached, --fresh and "
                         "--merged-out together\n");
            return usage();
        }
        std::ifstream cached_in(*cached_file);
        std::ifstream fresh_in(*fresh_file);
        if (!cached_in || !fresh_in) {
            std::fprintf(stderr, "cannot read %s\n",
                         (cached_in ? *fresh_file : *cached_file).c_str());
            return 1;
        }
        // The cached matrix was measured on the base model, the fresh one
        // on the edited model; splice_matrix re-keys rows by module name.
        const epic::PermeabilityMatrix cached =
            epic::load_matrix_csv(cached_in, base);
        const epic::PermeabilityMatrix fresh =
            epic::load_matrix_csv(fresh_in, edited);
        const epic::PermeabilityMatrix merged =
            analytic::splice_matrix(edited, cached, fresh, plan);
        std::ofstream file(*merged_out);
        if (!file) {
            std::fprintf(stderr, "cannot write %s\n", merged_out->c_str());
            return 1;
        }
        epic::save_matrix_csv(file, merged);
        std::fprintf(stderr, "wrote %s\n", merged_out->c_str());
    }
    return 0;
}

/// `analytic validate` — the analytic-parity gate: engine vs exact
/// enumeration on Table 1, vs end-to-end campaign measurement, and a
/// synthetic divergence sweep. Writes the comparison JSON (the CI
/// artifact) and exits 1 when a prong exceeds its committed tolerance.
int cmd_analytic_validate(const std::vector<std::string>& args) {
    if (!flags_ok(args,
                  {"--cases", "--times", "--graphs", "--seed", "--out",
                   "--enumeration-tolerance", "--campaign-tolerance"},
                  {"--no-campaign", "--no-synth"})) {
        return usage();
    }
    analytic::ValidateOptions options;
    options.run_campaign = !has_flag(args, "--no-campaign");
    options.run_synth = !has_flag(args, "--no-synth");
    number_flag(args, "--cases", options.campaign.case_count);
    number_flag(args, "--times", options.campaign.times_per_bit);
    number_flag(args, "--graphs", options.synth_graphs);
    number_flag(args, "--seed", options.synth_seed);
    number_flag(args, "--enumeration-tolerance", options.enumeration_tolerance);
    number_flag(args, "--campaign-tolerance", options.campaign_tolerance);
    if (options.run_campaign) {
        std::fprintf(stderr,
                     "validating (enumeration + campaign of %zu cases x %zu "
                     "times/bit%s)...\n",
                     options.campaign.case_count, options.campaign.times_per_bit,
                     options.run_synth ? " + synth sweep" : "");
    }
    const analytic::ValidateResult result = analytic::validate_arrestment(options);
    const std::string text = result.report.dump();
    if (const auto out = flag_value(args, "--out")) {
        std::ofstream file(*out);
        if (!file) {
            std::fprintf(stderr, "cannot write %s\n", out->c_str());
            return 1;
        }
        file << text << "\n";
        std::fprintf(stderr, "wrote %s\n", out->c_str());
    } else {
        std::printf("%s\n", text.c_str());
    }
    std::fprintf(stderr, "analytic validate: %s\n", result.pass ? "PASS" : "FAIL");
    return result.pass ? 0 : 1;
}

int cmd_analytic(const std::vector<std::string>& args) {
    if (args.empty()) return usage();
    const std::string sub = args[0];
    const std::vector<std::string> rest(args.begin() + 1, args.end());
    try {
        if (sub == "predict") return cmd_analytic_predict(rest);
        if (sub == "diff-plan") return cmd_analytic_diff_plan(rest);
        if (sub == "validate") return cmd_analytic_validate(rest);
        return usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "analytic: %s\n", e.what());
        return 1;
    }
}

/// `epea_tool synth` — emit a seeded random layered system (and its
/// matrix) in the text formats the other commands consume. The same
/// seed and shape flags always produce byte-identical output.
int cmd_synth(const std::vector<std::string>& args) {
    if (!flags_ok(args,
                  {"--layers", "--width", "--fan-in", "--fan-out",
                   "--edge-density", "--cycle-density", "--seed", "--out",
                   "--matrix-out"},
                  {})) {
        return usage();
    }
    try {
        synth::LayeredOptions options;
        number_flag(args, "--layers", options.layers);
        number_flag(args, "--width", options.modules_per_layer);
        number_flag(args, "--fan-in", options.inputs_per_module);
        number_flag(args, "--fan-out", options.outputs_per_module);
        number_flag(args, "--edge-density", options.edge_density);
        number_flag(args, "--cycle-density", options.cycle_density);
        number_flag(args, "--seed", options.seed);
        const synth::SyntheticSystem sys = synth::random_layered_system(options);
        if (const auto out = flag_value(args, "--out")) {
            std::ofstream file(*out);
            if (!file) {
                std::fprintf(stderr, "cannot write %s\n", out->c_str());
                return 1;
            }
            epic::save_system_text(file, *sys.system);
        } else {
            epic::save_system_text(std::cout, *sys.system);
        }
        if (const auto out = flag_value(args, "--matrix-out")) {
            std::ofstream file(*out);
            if (!file) {
                std::fprintf(stderr, "cannot write %s\n", out->c_str());
                return 1;
            }
            epic::save_matrix_csv(file, sys.matrix);
        }
        std::fprintf(stderr,
                     "# synth: %zu layers x %zu modules, %zu signals, seed %llu\n",
                     options.layers, options.modules_per_layer,
                     sys.system->signal_count(),
                     static_cast<unsigned long long>(options.seed));
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "synth: %s\n", e.what());
        return 1;
    }
}

/// `epea_tool serve` — the long-running placement/analysis daemon
/// (DESIGN.md §13). Loads model + matrix once, answers concurrent
/// HTTP/JSON queries until SIGINT/SIGTERM, then drains gracefully and
/// flushes the usual observability artifacts.
int cmd_serve(const std::vector<std::string>& args) {
    if (!flags_ok(args,
                  {"--model", "--matrix", "--port", "--threads", "--eval-dir",
                   "--cases", "--times", "--trace-out", "--metrics-out"},
                  {})) {
        return usage();
    }
    try {
        serve::DaemonOptions options;
        options.service.tool_version = EPEA_VERSION;
        if (const auto m = flag_value(args, "--model")) options.service.model_path = *m;
        if (const auto m = flag_value(args, "--matrix")) {
            options.service.matrix_path = *m;
        }
        if (const auto d = flag_value(args, "--eval-dir")) options.service.eval_dir = *d;
        number_flag(args, "--cases", options.service.gt_cases);
        number_flag(args, "--times", options.service.gt_times);
        number_flag(args, "--port", options.server.port);
        number_flag(args, "--threads", options.server.threads);

        ObsCli obs_cli(args, "serve");
        {
            util::JsonObject config;
            config.emplace("eval_dir", util::JsonValue(options.service.eval_dir));
            config.emplace("port", util::JsonValue(options.server.port));
            config.emplace("threads", util::JsonValue(options.server.threads));
            obs_cli.manifest().config = std::move(config);
            obs_cli.manifest().threads = options.server.threads;
        }
        const int rc = serve::run_daemon(options);
        const int obs_rc = obs_cli.finish();
        return rc != 0 ? rc : obs_rc;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "serve: %s\n", e.what());
        return 1;
    }
}

int cmd_version(const std::vector<std::string>& args) {
    if (!flags_ok(args, {}, {})) return usage();
    std::printf("epea_tool %s (%s, obs %s)\n", EPEA_VERSION, obs::build_type(),
                obs::kEnabled ? "on" : "off");
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string command = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    if (command == "describe") return cmd_describe(args);
    if (command == "simulate") return cmd_simulate(args);
    if (command == "estimate") return cmd_estimate(args);
    if (command == "analyze") return cmd_analyze(args);
    if (command == "inject") return cmd_inject(args);
    if (command == "campaign") return cmd_campaign(args);
    if (command == "place") return cmd_place(args);
    if (command == "obs") return cmd_obs(args);
    if (command == "check") return cmd_check(args);
    if (command == "lint") return cmd_lint(args);
    if (command == "analytic") return cmd_analytic(args);
    if (command == "synth") return cmd_synth(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "version") return cmd_version(args);
    std::fprintf(stderr, "epea_tool: unknown command '%s'\n", command.c_str());
    return usage();
}
