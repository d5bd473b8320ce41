#include "exp/arrestment_experiments.hpp"

#include <algorithm>
#include <cstdlib>

#include "ea/calibrate.hpp"
#include "fi/batch.hpp"
#include "fi/fastpath.hpp"
#include "fi/golden.hpp"
#include "fi/injector.hpp"
#include "obs/trace.hpp"

namespace epea::exp {

namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
    if (const char* raw = std::getenv(name)) {
        const long v = std::strtol(raw, nullptr, 10);
        if (v > 0) return static_cast<std::size_t>(v);
    }
    return fallback;
}

/// Bare (trace-only) golden run for case `c`, through the caller's cache
/// when it shares one. Monitors never alter signals, so the fault-free
/// trace is context-free and shareable across drivers.
std::shared_ptr<const fi::GoldenCaseData> bare_golden(
    const CampaignOptions& options, target::ArrestmentSystem& sys, std::size_t c,
    fi::FastPathStats& stats) {
    return fi::golden_for(
        options.golden_cache, fi::golden_key("trace", c),
        [&] { return fi::capture_golden_data(sys.sim(), options.max_ticks, false); },
        &stats);
}

}  // namespace

CampaignOptions CampaignOptions::from_env() {
    CampaignOptions o;
    o.case_count = std::min<std::size_t>(env_size("EPEA_CASES", o.case_count), 25);
    o.times_per_bit = env_size("EPEA_TIMES", o.times_per_bit);
    return o;
}

const std::vector<std::pair<std::string, std::string>>& arrestment_ea_signals() {
    static const std::vector<std::pair<std::string, std::string>> kPairs = {
        {"EA1", "SetValue"}, {"EA2", "IsValue"}, {"EA3", "i"},
        {"EA4", "pulscnt"},  {"EA5", "ms_slot_nbr"}, {"EA6", "mscnt"},
        {"EA7", "OutValue"},
    };
    return kPairs;
}

ea::EaBank make_calibrated_bank(const model::SystemModel& system,
                                const std::vector<runtime::Trace>& golden,
                                const ea::CalibrationMargins& margins) {
    ea::EaCalibrator cal(system);
    for (const auto& trace : golden) cal.add_trace(trace, margins.settle_fraction);
    ea::EaBank bank;
    for (const auto& [ea_name, signal_name] : arrestment_ea_signals()) {
        const model::SignalId sid = system.signal_id(signal_name);
        bank.add(ea_name, sid, cal.calibrate(sid, margins));
    }
    return bank;
}

void recalibrate_bank(ea::EaBank& bank, const model::SystemModel& system,
                      const runtime::Trace& golden,
                      const ea::CalibrationMargins& margins) {
    ea::EaCalibrator cal(system);
    cal.add_trace(golden, margins.settle_fraction);
    for (std::size_t i = 0; i < bank.size(); ++i) {
        bank.at(i).set_params(cal.calibrate(bank.at(i).signal(), margins));
    }
}

epic::PermeabilityMatrix estimate_arrestment_permeability(
    target::ArrestmentSystem& sys, const CampaignOptions& options,
    const epic::EstimatorProgress& progress) {
    obs::Span span("exp.permeability");
    const auto cases = target::standard_test_cases();
    const std::size_t case_count = std::min(
        options.case_count, cases.size() - std::min(options.case_first, cases.size()));

    fi::Injector injector(sys.sim());
    epic::PermeabilityEstimator estimator(sys.sim(), injector);
    epic::EstimatorOptions eopt;
    eopt.times_per_bit = options.times_per_bit;
    eopt.max_ticks = options.max_ticks;
    eopt.seed = options.seed;
    eopt.case_index_offset = options.case_first;
    eopt.use_batch = options.use_batch;
    eopt.golden_cache = options.golden_cache;
    eopt.module_filter = options.module_filter;
    epic::PermeabilityMatrix pm = estimator.estimate(
        case_count,
        [&](std::size_t c) { sys.configure(cases[options.case_first + c]); }, eopt,
        progress);
    if (options.fastpath_out) options.fastpath_out->merge(estimator.fastpath_stats());
    return pm;
}

InputCoverageResult input_coverage_experiment(target::ArrestmentSystem& sys,
                                              const InputCoverageOptions& options,
                                              const std::vector<SubsetSpec>& subsets) {
    obs::Span span("exp.input");
    const auto& system = sys.system();
    const auto cases = target::standard_test_cases();
    const std::size_t case_first = std::min(options.campaign.case_first, cases.size());
    const std::size_t case_count =
        std::min(options.campaign.case_count, cases.size() - case_first);

    sys.sim().clear_monitors();
    fi::Injector injector(sys.sim());

    // Bank built once; parameters recalibrated per test case.
    InputCoverageResult result;
    for (const auto& [ea_name, _] : arrestment_ea_signals()) {
        result.ea_names.push_back(ea_name);
    }
    for (const auto& s : subsets) result.subset_names.push_back(s.name);

    auto make_row = [&](const std::string& name) {
        InputCoverageRow row;
        row.signal = name;
        row.detected_per_ea.assign(result.ea_names.size(), 0);
        row.detected_per_subset.assign(subsets.size(), 0);
        return row;
    };
    for (const auto& name : options.target_signals) result.rows.push_back(make_row(name));
    result.all = make_row("All");

    // Subset membership as bank indices (resolved after bank exists).
    ea::EaBank bank;
    std::vector<std::vector<std::size_t>> subset_indices;

    fi::FastPathStats stats;
    fi::BatchRunner batchrun(sys.sim(), injector);
    batchrun.set_mode(fi::BatchRunner::Mode::kCoverage);

    // Outcomes are tallied in submission order, which fixes the
    // accumulation order (the latency stats are running sums, so order
    // matters).
    struct Tally {
        std::size_t row = 0;
        runtime::Tick t = 0;
        std::size_t ticket = 0;
    };
    std::vector<Tally> tallies;

    for (std::size_t c = case_first; c < case_first + case_count; ++c) {
        // Injection-time stream keyed by the *global* case index (like the
        // severe/recovery campaigns): any case window reproduces the same
        // per-case injection moments as the full sequential campaign, which
        // is what lets the sharded campaign executor split this experiment.
        util::Rng time_rng(0xc0ffeeULL + static_cast<std::uint64_t>(c) * 0x9e3779b9ULL);
        sys.configure(cases[c]);
        injector.disarm();
        batchrun.set_golden(nullptr);  // release the previous case's golden first
        const auto bare = bare_golden(options.campaign, sys, c, stats);
        const fi::GoldenRun& gr = bare->run;

        if (c == case_first) {
            std::vector<runtime::Trace> traces{gr.trace};
            bank = make_calibrated_bank(system, traces, options.campaign.ea_margins);
            bank.arm(sys.sim());
            for (const auto& s : subsets) {
                std::vector<std::size_t> idx;
                for (const auto& n : s.ea_names) idx.push_back(bank.index_of(n));
                subset_indices.push_back(std::move(idx));
            }
        } else {
            recalibrate_bank(bank, system, gr.trace, options.campaign.ea_margins);
        }

        // Snapshot golden for the batched engine, captured under the
        // armed, freshly calibrated bank — monitor state is part of the
        // snapshot, so the capture context must match the injection runs
        // exactly. The bare golden makes the runner replay instead.
        std::shared_ptr<const fi::GoldenCaseData> golden = bare;
        if (options.campaign.use_batch && sys.sim().snapshot_supported()) {
            golden = fi::golden_for(
                options.campaign.golden_cache, fi::golden_key("input", c),
                [&] {
                    return fi::capture_golden_data(sys.sim(), options.campaign.max_ticks,
                                                   true);
                },
                &stats);
        }
        batchrun.set_golden(golden);
        batchrun.clear();
        tallies.clear();

        // Injection moments deliberately overshoot the golden-run length
        // slightly so a realistic share of injections lands after the
        // arrestment completes and counts as inactive (cf. Table 4's
        // n_err < injected).
        const auto window_end =
            static_cast<runtime::Tick>(static_cast<std::uint64_t>(gr.length) * 108 / 100);

        for (std::size_t r = 0; r < options.target_signals.size(); ++r) {
            const model::SignalId sid = system.signal_id(options.target_signals[r]);
            const unsigned width = system.signal(sid).width;
            for (unsigned bit = 0; bit < width; ++bit) {
                const auto ticks = fi::spread_ticks(
                    0, window_end, options.campaign.times_per_bit, &time_rng);
                for (const runtime::Tick t : ticks) {
                    tallies.push_back(
                        {r, t, batchrun.submit(fi::Injection::into_signal(sid, bit, t))});
                }
            }
        }

        batchrun.flush();
        for (const Tally& tl : tallies) {
            const fi::BatchOutcome& oc = batchrun.outcome(tl.ticket);
            auto& row = result.rows[tl.row];
            ++row.injected;
            ++result.all.injected;
            if (!oc.fired) continue;  // inactive
            ++row.active;
            ++result.all.active;

            // Rehydrate the bank's detection state from the run's monitor
            // words (the sim's monitor order IS the bank's arm order).
            runtime::StateReader monitors(oc.monitors);
            for (std::size_t e = 0; e < bank.size(); ++e) {
                bank.at(e).restore_state(monitors);
            }

            bool any = false;
            runtime::Tick earliest = runtime::kInvalidTick;
            for (std::size_t e = 0; e < bank.size(); ++e) {
                if (!bank.at(e).triggered()) continue;
                ++row.detected_per_ea[e];
                ++result.all.detected_per_ea[e];
                earliest = std::min(earliest, bank.at(e).first_detection());
                any = true;
            }
            if (any) {
                ++row.detected_any;
                ++result.all.detected_any;
                if (earliest >= tl.t) {
                    const auto lat = static_cast<double>(earliest - tl.t);
                    row.latency.add(lat);
                    result.all.latency.add(lat);
                }
            }
            for (std::size_t s = 0; s < subsets.size(); ++s) {
                if (bank.any_triggered(subset_indices[s])) {
                    ++row.detected_per_subset[s];
                    ++result.all.detected_per_subset[s];
                }
            }
        }
    }
    sys.sim().clear_monitors();
    stats.merge(batchrun.stats());
    if (options.campaign.fastpath_out) options.campaign.fastpath_out->merge(stats);
    return result;
}

SevereCoverageResult severe_coverage_experiment(target::ArrestmentSystem& sys,
                                                const CampaignOptions& options,
                                                const std::vector<SubsetSpec>& subsets) {
    obs::Span span("exp.severe");
    const auto& system = sys.system();
    const auto cases = target::standard_test_cases();
    const std::size_t case_first = std::min(options.case_first, cases.size());
    const std::size_t case_count =
        std::min(options.case_count, cases.size() - case_first);

    sys.sim().clear_monitors();
    fi::Injector injector(sys.sim());

    SevereCoverageResult result;
    result.ram_locations = sys.sim().memory().byte_count(runtime::Region::kRam);
    result.stack_locations = sys.sim().memory().byte_count(runtime::Region::kStack);
    for (const auto& s : subsets) {
        result.sets.push_back(SevereSetResult{s.name, {}});
    }

    ea::EaBank bank;
    std::vector<std::vector<std::size_t>> subset_indices;

    const std::size_t word_count = sys.sim().memory().word_count();

    fi::FastPathStats stats;
    fi::BatchRunner batchrun(sys.sim(), injector);
    batchrun.set_mode(fi::BatchRunner::Mode::kCoverage);

    for (std::size_t c = case_first; c < case_first + case_count; ++c) {
        // Injection streams keyed by the global case index: running any
        // case window reproduces the flips of the full sequential campaign.
        std::uint64_t seed = 0x5e7e8eULL + static_cast<std::uint64_t>(c) * word_count;
        sys.configure(cases[c]);
        injector.disarm();
        batchrun.set_golden(nullptr);  // release the previous case's golden first
        const auto bare = bare_golden(options, sys, c, stats);
        const fi::GoldenRun& gr = bare->run;
        sys.sim().enable_trace(false);  // severe runs need no traces

        if (c == case_first) {
            std::vector<runtime::Trace> traces{gr.trace};
            bank = make_calibrated_bank(system, traces, options.ea_margins);
            bank.arm(sys.sim());
            for (const auto& s : subsets) {
                std::vector<std::size_t> idx;
                for (const auto& n : s.ea_names) idx.push_back(bank.index_of(n));
                subset_indices.push_back(std::move(idx));
            }
        } else {
            recalibrate_bank(bank, system, gr.trace, options.ea_margins);
        }

        // Periodic plans re-perturb the state every `severe_period` ticks,
        // so lanes can neither prune nor usefully fork late: they all start
        // from the reset state, captured under the armed, freshly
        // calibrated bank (DESIGN.md §9). The bare golden makes the runner
        // replay instead.
        std::shared_ptr<const fi::GoldenCaseData> golden = bare;
        if (options.use_batch && sys.sim().snapshot_supported()) {
            golden = std::make_shared<const fi::GoldenCaseData>(
                fi::capture_reset_data(sys.sim(), *bare));
        }
        batchrun.set_golden(golden);
        batchrun.clear();
        for (std::size_t w = 0; w < word_count; ++w) {
            (void)batchrun.submit(fi::Injection::into_memory(w, fi::kRandomBit, /*at=*/10,
                                                             options.severe_period),
                                  fi::BatchRunner::kNoSeal, ++seed);
        }
        batchrun.flush();

        // Tickets follow the word order of the submissions.
        for (std::size_t w = 0; w < word_count; ++w) {
            const runtime::Region region = sys.sim().memory().word(w).region;
            const std::size_t region_idx = region == runtime::Region::kRam ? 0 : 1;
            const fi::BatchOutcome& oc = batchrun.outcome(w);
            ++result.runs;

            // Rehydrate the bank's detection state and the plant's failure
            // report from the run's end state.
            runtime::StateReader monitors(oc.monitors);
            for (std::size_t e = 0; e < bank.size(); ++e) {
                bank.at(e).restore_state(monitors);
            }
            runtime::StateReader environment(oc.environment);
            sys.plant().restore_state(environment);

            const bool failed = sys.plant().failure_report().failed();
            if (failed) ++result.failures;
            const std::size_t class_idx = failed ? 1 : 2;

            for (std::size_t s = 0; s < subsets.size(); ++s) {
                const bool det = bank.any_triggered(subset_indices[s]);
                auto& set = result.sets[s];
                for (const std::size_t region_slot : {region_idx, std::size_t{2}}) {
                    for (const std::size_t class_slot : {std::size_t{0}, class_idx}) {
                        auto& cell = set.cells[region_slot][class_slot];
                        ++cell.n;
                        if (det) ++cell.detected;
                    }
                }
            }
        }
    }
    sys.sim().enable_trace(true);
    sys.sim().clear_monitors();
    stats.merge(batchrun.stats());
    if (options.fastpath_out) options.fastpath_out->merge(stats);
    return result;
}

std::vector<std::string> false_positive_check(target::ArrestmentSystem& sys,
                                              const CampaignOptions& options) {
    obs::Span span("exp.false_positive");
    const auto& system = sys.system();
    const auto cases = target::standard_test_cases();
    const std::size_t case_count = std::min(options.case_count, cases.size());

    fi::FastPathStats stats;

    std::vector<std::string> fired;
    for (std::size_t c = 0; c < case_count; ++c) {
        sys.configure(cases[c]);
        sys.sim().clear_monitors();
        // The golden trace only calibrates the bank here; the fault-free
        // monitored run below IS the measurement and cannot be elided.
        const auto bare = bare_golden(options, sys, c, stats);
        std::vector<runtime::Trace> traces{bare->run.trace};
        ea::EaBank bank = make_calibrated_bank(system, traces);
        bank.arm(sys.sim());
        sys.sim().reset();
        sys.sim().run(options.max_ticks);
        for (const std::size_t idx : bank.triggered()) {
            fired.push_back("case " + std::to_string(c) + ": " + bank.at(idx).name());
        }
        sys.sim().clear_monitors();
    }
    if (options.fastpath_out) options.fastpath_out->merge(stats);
    return fired;
}

}  // namespace epea::exp
