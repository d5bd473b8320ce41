// perm_campaign and severe_campaign: whole campaigns through
// campaign::CampaignExecutor::run, repeated in fresh directories until the
// run's time is spent. Each repetition is one complete campaign, so its
// wall time is what a user waits for the Table-1 matrix or the Fig-3
// coverage table. The host probe runs between campaigns, and every
// timing is reported at the reference host's speed (see host_probe_s).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "campaign/executor.hpp"
#include "exp/arrestment_experiments.hpp"
#include "fi/golden.hpp"
#include "target/arrestment_system.hpp"

namespace perfbench {

namespace {

using namespace epea;

/// Worker threads of every campaign run (<= nproc). One worker repeated
/// best on a shared 4-core host: peak RSS no longer depends on which
/// shards happen to overlap, and the work per campaign does not depend
/// on how the seed deals the cases.
constexpr std::size_t kWorkers = 1;
/// Injection moments per bit for perm_campaign: one campaign is
/// 25 cases x 162 input bits x 4 = 16,200 runs, about a second, so a
/// run holds a few dozen campaigns to take medians over.
constexpr std::size_t kPermTimesPerBit = 4;
/// Digest of the merged Fig-3 counts of the default severe campaign
/// (every case, every RAM/stack word, flips every 20 ticks, EH/PA sets).
/// The counts do not depend on the seed, which only deals the cases.
constexpr std::uint64_t kSevereDigest = 0xfd02154e704b0d6bULL;
/// Repetitions a timed window runs even when the time is spent sooner.
constexpr std::size_t kMinReps = 2;
/// Executor set-ups timed after each campaign of an untraced window;
/// setup_s is the median of all of them. Spreading them over the run
/// samples the host's fast and slow phases alike.
constexpr std::size_t kSetupsPerRep = 15;
/// Largest share of worker capacity the traced stages may leave
/// unattributed before the reconciliation check fails.
constexpr double kReconcileResidual = 0.05;

/// One complete campaign: construction, run(), merge.
struct Rep {
    bool ok = false;
    std::string error;
    double run_s = 0.0;
    double cpu_s = 0.0;
    /// kProbeReferenceS / the host probe's mean time just before and just
    /// after this campaign: its timings at the reference host's speed.
    double scale = 1.0;
    std::uint64_t runs = 0;
    std::size_t workers = 0;
    std::vector<double> shard_ms;  ///< each shard's wall time (checkpointed)
    std::uint64_t t0_ns = 0;  ///< obs clock at run() entry
    std::uint64_t t1_ns = 0;  ///< obs clock at run() return
    fi::FastPathStats fp;
    std::string result_text;  ///< canonical merged counts
    exp::SevereCoverageResult severe;
};

/// Merges the finished campaign and returns its counts as canonical text.
using MergeFn = std::function<std::string(const campaign::CampaignExecutor&, Rep&)>;

Rep run_rep(const campaign::CampaignSpec& spec, const std::string& dir,
            const MergeFn& merge) {
    Rep rep;
    try {
        std::filesystem::remove_all(dir);
        campaign::CampaignExecutor executor(dir, spec);

        campaign::ExecutorOptions eo;
        eo.threads = kWorkers;
        const double cpu0 = process_cpu_s();
        rep.t0_ns = obs::now_ns();
        const auto r0 = Clock::now();
        const bool finished = executor.run(eo);
        rep.run_s = seconds_since(r0);
        rep.t1_ns = obs::now_ns();
        rep.cpu_s = process_cpu_s() - cpu0;
        if (!finished) throw std::runtime_error("campaign did not finish");

        for (const campaign::ShardResult& r : executor.completed()) {
            rep.runs += r.runs;
            rep.shard_ms.push_back(1e3 * r.wall_seconds);
            rep.workers = r.threads;
        }
        rep.fp = executor.fastpath_totals();
        rep.result_text = merge(executor, rep);
        rep.ok = true;
    } catch (const std::exception& e) {
        rep.error = e.what();
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return rep;
}

/// Stage totals of one traced repetition, from the program's own spans.
struct Stages {
    double golden_s = 0.0;
    double case_s = 0.0;
    double shard_s = 0.0;
    double checkpoint_s = 0.0;
    double merge_s = 0.0;
    double idle_s = 0.0;
    double capacity_s = 0.0;
    double residual_frac = 0.0;
    double busy_frac = 0.0;
    std::vector<double> shard_durations;
    std::vector<double> case_durations;
};

/// Attributes worker capacity (workers x (run() wall + merge)) to golden
/// capture, case work, shard overhead, checkpoint, merge and idle time.
/// Idle is a worker's time before its first and after its last shard,
/// plus the other workers' time while one thread merges; the residual is
/// whatever no span covers (pool start-up, journal writes between shards).
Stages reconcile(const std::vector<obs::SpanEvent>& events, const Rep& rep) {
    Stages st;
    st.golden_s = span_total_s(events, "fi.golden_capture");
    st.case_durations = span_durations_s(events, "campaign.case");
    st.case_s = sum(st.case_durations);
    st.shard_durations = span_durations_s(events, "campaign.shard");
    st.shard_s = sum(st.shard_durations);
    st.checkpoint_s = span_total_s(events, "campaign.checkpoint");
    st.merge_s = span_total_s(events, "campaign.merge");

    const double run_s = 1e-9 * static_cast<double>(rep.t1_ns - rep.t0_ns);
    const double workers = static_cast<double>(rep.workers);
    std::map<std::uint32_t, std::pair<std::uint64_t, std::uint64_t>> extent;
    for (const auto& e : events) {
        if (e.name != "campaign.shard" && e.name != "campaign.checkpoint") continue;
        auto [it, fresh] = extent.try_emplace(e.tid, e.start_ns, e.start_ns + e.dur_ns);
        if (!fresh) {
            it->second.first = std::min(it->second.first, e.start_ns);
            it->second.second = std::max(it->second.second, e.start_ns + e.dur_ns);
        }
    }
    for (const auto& [tid, span] : extent) {
        st.idle_s += 1e-9 * static_cast<double>(span.first - rep.t0_ns) +
                     1e-9 * static_cast<double>(rep.t1_ns - span.second);
    }
    const double silent_workers = workers - static_cast<double>(extent.size());
    st.idle_s += std::max(0.0, silent_workers) * run_s + (workers - 1.0) * st.merge_s;
    st.capacity_s = workers * (run_s + st.merge_s);
    // Shard time = golden capture + case work + shard overhead.
    const double attributed = st.shard_s + st.checkpoint_s + st.merge_s + st.idle_s;
    st.residual_frac =
        st.capacity_s > 0 ? (st.capacity_s - attributed) / st.capacity_s : 1.0;
    st.busy_frac = (st.shard_s + st.checkpoint_s) / (workers * run_s);
    return st;
}

/// Appends the times of kSetupsPerRep executor constructions (validating
/// the spec and writing spec.json) in fresh directories, multiplied by
/// `scale` (kProbeReferenceS / the host probe just before).
void time_setups(const campaign::CampaignSpec& spec, const std::string& dir, double scale,
                 std::vector<double>& setup_s) {
    for (std::size_t i = 0; i < kSetupsPerRep; ++i) {
        std::filesystem::remove_all(dir);
        const auto t0 = Clock::now();
        const campaign::CampaignExecutor executor(dir, spec);
        setup_s.push_back(seconds_since(t0) * scale);
    }
    std::filesystem::remove_all(dir);
}

/// Runs complete campaigns until `seconds` are spent (at least kMinReps).
/// With `setup_s`, executor set-ups are timed after each campaign; with
/// `spans`, each campaign's spans are drained and reconciled.
std::vector<Rep> run_window(const campaign::CampaignSpec& spec, const Options& options,
                            const MergeFn& merge, double seconds, const std::string& tag,
                            std::vector<double>* setup_s, SpanLog* spans,
                            std::vector<Stages>* stages) {
    std::vector<Rep> reps;
    const std::string dir = options.work_dir + "/" + options.workload + "-" + tag;
    const auto t0 = Clock::now();
    double probe_before = host_probe_s();
    while (reps.size() < kMinReps || seconds_since(t0) < seconds) {
        reps.push_back(run_rep(spec, dir, merge));
        const double probe_after = host_probe_s();
        reps.back().scale = 2.0 * kProbeReferenceS / (probe_before + probe_after);
        probe_before = probe_after;
        if (spans != nullptr) {
            const std::vector<obs::SpanEvent> events = spans->drain();
            if (reps.back().ok) stages->push_back(reconcile(events, reps.back()));
        }
        if (setup_s != nullptr) {
            time_setups(spec, dir + "-setup", kProbeReferenceS / probe_after, *setup_s);
        }
    }
    return reps;
}

/// Checks every repetition against the run count and the first one's
/// merged counts; shards are the operations attempted.
void score_reps(const std::vector<Rep>& reps, std::uint64_t shards,
                std::uint64_t expected_runs, Result& result) {
    std::size_t bad = 0;
    for (const Rep& rep : reps) {
        result.attempted += shards;
        const bool ok = rep.ok && rep.runs == expected_runs &&
                        rep.result_text == reps.front().result_text;
        if (!ok) {
            result.failed += shards;
            ++bad;
            if (!rep.error.empty()) result.notes.push_back("campaign error: " + rep.error);
        }
    }
    result.check(bad == 0, std::to_string(reps.size() - bad) + "/" +
                               std::to_string(reps.size()) +
                               " campaigns finished with " +
                               std::to_string(expected_runs) +
                               " runs and identical merged counts");
}

/// Every timing is scaled to the reference host's speed (Rep::scale),
/// then summarised as a median over the window's campaigns: throughput
/// and CPU cost per campaign, latency per shard, the unit a campaign
/// checkpoints and `campaign status` reports.
void report_end_to_end(const std::vector<Rep>& reps, double setup_s, Result& result) {
    std::vector<double> rate, cpu_us, shard_ms;
    std::string walls, scales;
    for (const Rep& rep : reps) {
        if (!rep.ok || rep.runs == 0) continue;
        const double runs = static_cast<double>(rep.runs);
        rate.push_back(runs / (rep.run_s * rep.scale));
        cpu_us.push_back(1e6 * rep.cpu_s * rep.scale / runs);
        for (const double ms : rep.shard_ms) shard_ms.push_back(ms * rep.scale);
        walls += " " + std::to_string(std::lround(1e3 * rep.run_s));
        char scale[16];
        std::snprintf(scale, sizeof scale, " %.2f", rep.scale);
        scales += scale;
    }
    result.set("setup_s", setup_s, "s");
    result.set("throughput_per_s", median(rate), "1/s");
    result.set("cpu_us_per_op", median(cpu_us), "us");
    result.set("latency_p50_ms", median(shard_ms), "ms");
    result.set("latency_tail_ms", quantile(shard_ms, 0.9), "ms");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    result.notes.push_back("campaign wall times (ms, unscaled):" + walls);
    result.notes.push_back("host probe scale per campaign:" + scales + "; shards timed: " +
                           std::to_string(shard_ms.size()));
}

/// Per-layer figures of the traced repetitions: counters from the last
/// one (they repeat exactly), timings as medians over all of them.
void report_layers(const std::vector<Rep>& untraced, const std::vector<Rep>& traced,
                   const std::vector<Stages>& stages, Result& result) {
    const Rep& last = traced.back();
    const fi::FastPathStats& fp = last.fp;
    result.set("fi.lanes_launched", static_cast<double>(fp.lanes_launched), "count");
    result.set("fi.lanes_retired_pruned", static_cast<double>(fp.lanes_retired_pruned),
               "count");
    result.set("fi.lanes_retired_sealed", static_cast<double>(fp.lanes_retired_sealed),
               "count");
    result.set("fi.lanes_retired_end", static_cast<double>(fp.lanes_retired_end), "count");
    std::uint64_t batches = 0;
    for (const std::uint64_t n : fp.batch_widths) batches += n;
    result.set("fi.batch_width_mean",
               batches ? static_cast<double>(fp.lanes_launched) / static_cast<double>(batches)
                       : 0.0,
               "lanes");
    result.set("fi.ticks_executed", static_cast<double>(fp.ticks_executed), "count");
    result.set("fi.ticks_saved", static_cast<double>(fp.ticks_saved), "count");
    const double ticks = static_cast<double>(fp.ticks_executed + fp.ticks_saved);
    result.set("fi.tick_reuse_frac", ticks > 0 ? static_cast<double>(fp.ticks_saved) / ticks : 0.0,
               "frac");
    result.set("fi.runs", static_cast<double>(last.runs), "count");
    result.set("fi.runs_forked", static_cast<double>(fp.forked_runs), "count");
    result.set("fi.runs_pruned", static_cast<double>(fp.pruned_runs), "count");
    result.set("fi.runs_skipped", static_cast<double>(fp.skipped_runs), "count");
    result.set("fi.golden_cache_hits", static_cast<double>(fp.cache_hits), "count");
    result.set("fi.golden_cache_misses", static_cast<double>(fp.cache_misses), "count");

    std::vector<double> golden, tick_rate, shard_p50, shard_max, case_p50, case_max, ckpt,
        merge, busy, residual;
    for (const Stages& st : stages) {
        golden.push_back(st.golden_s);
        const double case_work = st.case_s - st.golden_s;
        tick_rate.push_back(case_work > 0 ? static_cast<double>(fp.ticks_executed) / case_work
                                          : 0.0);
        shard_p50.push_back(median(st.shard_durations));
        shard_max.push_back(quantile(st.shard_durations, 1.0));
        case_p50.push_back(median(st.case_durations));
        case_max.push_back(quantile(st.case_durations, 1.0));
        ckpt.push_back(st.checkpoint_s);
        merge.push_back(st.merge_s);
        busy.push_back(st.busy_frac);
        residual.push_back(st.residual_frac);
    }
    result.set("fi.golden_capture_s", median(golden), "s");
    result.set("runtime.ticks_per_busy_s", median(tick_rate), "1/s");
    result.set("campaign.shard_s_p50", median(shard_p50), "s");
    result.set("campaign.shard_s_max", median(shard_max), "s");
    result.set("exp.case_s_p50", median(case_p50), "s");
    result.set("exp.case_s_max", median(case_max), "s");
    result.set("campaign.checkpoint_s", median(ckpt), "s");
    result.set("campaign.merge_s", median(merge), "s");
    result.set("campaign.worker_busy_frac", median(busy), "frac");
    result.set("campaign.reconcile_residual_frac", median(residual), "frac");

    for (const Stages& st : stages) {
        char line[320];
        std::snprintf(line, sizeof line,
                      "workers x wall %.3f s = golden %.3f + case work %.3f + shard "
                      "other %.3f + checkpoint %.3f + merge %.3f + idle %.3f + residual "
                      "%.3f (%.2f%%, limit %.0f%%)",
                      st.capacity_s, st.golden_s, st.case_s - st.golden_s,
                      st.shard_s - st.case_s, st.checkpoint_s, st.merge_s, st.idle_s,
                      st.residual_frac * st.capacity_s, 100.0 * st.residual_frac,
                      100.0 * kReconcileResidual);
        result.check(std::abs(st.residual_frac) <= kReconcileResidual, line);
    }

    std::vector<double> untraced_s, traced_s;
    for (const Rep& r : untraced) untraced_s.push_back(r.run_s * r.scale);
    for (const Rep& r : traced) traced_s.push_back(r.run_s * r.scale);
    result.set("obs.trace_overhead_pct", 100.0 * (median(traced_s) / median(untraced_s) - 1.0),
               "%");
}

/// Wall-time cost of the armed 7-EA bank on one fault-free arrestment:
/// median(armed) / median(bare) - 1, interleaved to cancel drift.
double ea_check_overhead() {
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases().front());
    sys.sim().clear_monitors();
    const fi::GoldenRun golden = fi::capture_golden_run(sys.sim(), target::kMaxRunTicks);
    ea::EaBank bank = exp::make_calibrated_bank(sys.system(), {golden.trace});
    sys.sim().enable_trace(false);
    std::vector<double> bare, armed;
    for (int i = 0; i < 41; ++i) {
        sys.sim().clear_monitors();
        auto t0 = Clock::now();
        (void)sys.run_arrestment();
        bare.push_back(seconds_since(t0));
        bank.arm(sys.sim());
        t0 = Clock::now();
        (void)sys.run_arrestment();
        armed.push_back(seconds_since(t0));
    }
    sys.sim().clear_monitors();
    sys.sim().enable_trace(true);
    return median(armed) / median(bare) - 1.0;
}

/// Runs either campaign workload.
Result run_campaign(const Options& options, const campaign::CampaignSpec& spec,
                    std::uint64_t expected_runs, const MergeFn& merge) {
    Result result;
    std::filesystem::create_directories(options.work_dir);
    if (!options.trace) {
        std::vector<double> setup_s;
        const std::vector<Rep> reps = run_window(spec, options, merge, options.seconds, "run",
                                                 &setup_s, nullptr, nullptr);
        score_reps(reps, spec.effective_shards(), expected_runs, result);
        report_end_to_end(reps, median(setup_s), result);
        return result;
    }

    init_per_layer(result);
    const std::vector<Rep> untraced =
        run_window(spec, options, merge, options.seconds / 2, "plain", nullptr, nullptr, nullptr);
    SpanLog spans;
    std::vector<Stages> stages;
    const std::uint64_t dropped0 = obs::Tracer::instance().dropped();
    std::vector<Rep> traced;
    {
        const TraceSession session;
        traced = run_window(spec, options, merge, options.seconds / 2, "traced", nullptr, &spans,
                            &stages);
    }
    result.set("obs.spans_dropped",
               static_cast<double>(obs::Tracer::instance().dropped() - dropped0), "count");
    std::vector<Rep> all = untraced;
    all.insert(all.end(), traced.begin(), traced.end());
    score_reps(all, spec.effective_shards(), expected_runs, result);
    if (stages.empty()) {
        result.check(false, "no traced campaign finished");
        return result;
    }
    report_layers(untraced, traced, stages, result);
    if (spec.kind == campaign::CampaignKind::kSevere) {
        const exp::SevereCoverageResult& sv = traced.back().severe;
        for (const auto& set : sv.sets) {
            const double detected = static_cast<double>(set.cells[2][0].detected);
            if (set.set_name == "EH-set") result.set("ea.detected_eh", detected, "count");
            if (set.set_name == "PA-set") result.set("ea.detected_pa", detected, "count");
        }
        result.set("ea.check_overhead_frac", ea_check_overhead(), "frac");
    }
    const std::string trace_path = options.work_dir + "/" + options.workload + "-seed" +
                                   std::to_string(options.seed) + ".trace.json";
    spans.write(trace_path);
    result.notes.push_back("spans written to " + trace_path);
    return result;
}

std::string perm_text(const campaign::CampaignExecutor& executor,
                      const model::SystemModel& system, bool* cells_ok) {
    const epic::PermeabilityMatrix matrix = executor.merged_matrix(system);
    std::ostringstream os;
    for (const epic::PairEntry& e : matrix.entries()) {
        if (e.affected > e.active) *cells_ok = false;
        os << system.module_name(e.module) << ' ' << e.in_port << ' ' << e.out_port << ' '
           << e.affected << '/' << e.active << '\n';
    }
    return os.str();
}

std::string severe_text(const exp::SevereCoverageResult& sv) {
    std::ostringstream os;
    os << "runs " << sv.runs << " failures " << sv.failures << " ram " << sv.ram_locations
       << " stack " << sv.stack_locations << '\n';
    for (const auto& set : sv.sets) {
        os << set.set_name;
        for (const auto& row : set.cells) {
            for (const auto& cell : row) os << ' ' << cell.detected << '/' << cell.n;
        }
        os << '\n';
    }
    return os.str();
}

/// Injection runs of a permeability campaign: every input bit of every
/// module, times_per_bit moments, every case.
std::uint64_t perm_expected_runs(const model::SystemModel& system,
                                 const campaign::CampaignSpec& spec) {
    std::uint64_t bits = 0;
    for (const model::ModuleId mid : system.all_modules()) {
        for (const model::SignalId in : system.module(mid).inputs) {
            bits += system.signal(in).width;
        }
    }
    return bits * spec.case_ids.size() * spec.times_per_bit;
}

/// The batched matrix of one case equals the scalar fast path's, cell
/// for cell (each through its own single-case campaign).
bool batch_matches_scalar(const campaign::CampaignSpec& base, std::size_t case_id,
                          const model::SystemModel& system, const std::string& work_dir) {
    campaign::CampaignSpec spec = base;
    spec.case_ids = {case_id};
    spec.shards = 1;
    std::string text[2];
    for (int scalar = 0; scalar < 2; ++scalar) {
        const std::string dir = work_dir + "/perm-equivalence-" + std::to_string(scalar);
        std::filesystem::remove_all(dir);
        campaign::CampaignExecutor executor(dir, spec);
        campaign::ExecutorOptions eo;
        eo.threads = 1;
        eo.use_batch = scalar == 0;
        eo.timeline_interval_ms = 0;
        executor.run(eo);
        bool cells_ok = true;
        text[scalar] = perm_text(executor, system, &cells_ok);
        std::filesystem::remove_all(dir);
    }
    return !text[0].empty() && text[0] == text[1];
}

}  // namespace

Result run_perm_campaign(const Options& options) {
    const model::SystemModel system = target::make_arrestment_model();
    campaign::CampaignSpec spec =
        campaign::CampaignSpec::defaults(campaign::CampaignKind::kPermeability);
    spec.times_per_bit = kPermTimesPerBit;
    spec.seed = options.seed;
    // One case per shard: 25 shard times per campaign for the latency
    // percentiles, each the time of one whole case.
    spec.shards = spec.case_ids.size();

    bool cells_ok = true;
    const MergeFn merge = [&system, &cells_ok](const campaign::CampaignExecutor& executor,
                                                Rep&) {
        return perm_text(executor, system, &cells_ok);
    };
    Result result = run_campaign(options, spec, perm_expected_runs(system, spec), merge);
    result.check(cells_ok, "every cell has affected <= active");

    const std::size_t case_id = options.seed % spec.case_ids.size();
    const bool same = batch_matches_scalar(spec, case_id, system, options.work_dir);
    result.check(same, "case " + std::to_string(case_id) +
                           ": batched matrix equals the scalar fast path cell for cell");
    return result;
}

Result run_severe_campaign(const Options& options) {
    campaign::CampaignSpec spec =
        campaign::CampaignSpec::defaults(campaign::CampaignKind::kSevere);
    // The injection streams are keyed by case index, so the seed only
    // deals the cases into shards; the merged counts must not move. With
    // one case per shard the deal sets the order of the shards, not what
    // each holds, so the shard times do not depend on the seed.
    seeded_shuffle(spec.case_ids, options.seed);
    spec.shards = spec.case_ids.size();

    target::ArrestmentSystem sys;
    const std::uint64_t expected_runs = sys.sim().memory().word_count() * spec.case_ids.size();

    std::uint64_t digest = 0;
    const MergeFn merge = [&digest](const campaign::CampaignExecutor& executor, Rep& rep) {
        rep.severe = executor.merged_severe();
        const std::string text = severe_text(rep.severe);
        digest = fnv1a(text);
        return text;
    };
    Result result = run_campaign(options, spec, expected_runs, merge);
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(digest));
    result.check(digest == kSevereDigest,
                 std::string("merged Fig-3 counts digest ") + hex + " equals the recorded one");
    return result;
}

}  // namespace perfbench
