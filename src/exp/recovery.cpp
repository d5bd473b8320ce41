#include "exp/recovery.hpp"

#include <algorithm>

#include "ea/calibrate.hpp"
#include "fi/fastpath.hpp"
#include "fi/golden.hpp"
#include "fi/injector.hpp"
#include "obs/trace.hpp"

namespace epea::exp {

RecoveryResult recovery_experiment(target::ArrestmentSystem& sys,
                                   const CampaignOptions& options,
                                   const std::vector<std::string>& guarded_signals,
                                   erm::RecoveryPolicy policy) {
    obs::Span span("exp.recovery");
    const auto& system = sys.system();
    const auto cases = target::standard_test_cases();
    const std::size_t case_first = std::min(options.case_first, cases.size());
    const std::size_t case_count =
        std::min(options.case_count, cases.size() - case_first);

    sys.sim().clear_monitors();
    sys.sim().clear_recoverers();
    fi::Injector injector(sys.sim());

    RecoveryResult result;
    erm::ErmBank bank;
    const std::size_t word_count = sys.sim().memory().word_count();

    fi::FastPathStats stats;
    // The recovery experiment arms ERM recoverers, which the fused batch
    // kernel refuses, so every run replays (DESIGN.md §9).

    for (std::size_t c = case_first; c < case_first + case_count; ++c) {
        // Global-case-index keying, as in severe_coverage_experiment.
        std::uint64_t seed = 0xeca4e1ULL + static_cast<std::uint64_t>(c) * word_count;
        sys.configure(cases[c]);
        injector.disarm();
        sys.sim().clear_recoverers();
        const auto bare = fi::golden_for(
            options.golden_cache, fi::golden_key("trace", c),
            [&] { return fi::capture_golden_data(sys.sim(), options.max_ticks, false); },
            &stats);
        const fi::GoldenRun& gr = bare->run;
        sys.sim().enable_trace(false);

        // (Re)calibrate the wrappers from this configuration's golden run.
        ea::EaCalibrator cal(system);
        cal.add_trace(gr.trace);
        if (c == case_first) {
            for (const auto& name : guarded_signals) {
                const model::SignalId sid = system.signal_id(name);
                bank.add("ERM:" + name, sid, cal.calibrate(sid), policy);
            }
            result.erm_cost = bank.total_cost();
        } else {
            for (std::size_t w = 0; w < bank.size(); ++w) {
                bank.at(w).set_params(cal.calibrate(bank.at(w).signal()));
            }
        }

        for (std::size_t w = 0; w < word_count; ++w) {
            ++seed;
            ++result.runs;

            // Baseline: identical flips, no recovery.
            sys.sim().clear_recoverers();
            fi::replay(sys.sim(), injector,
                       {fi::Injection::into_memory(w, fi::kRandomBit, 10,
                                                   options.severe_period)},
                       options.max_ticks, seed, stats);
            if (sys.plant().failure_report().failed()) ++result.failures_baseline;

            // With recovery wrappers armed.
            bank.arm(sys.sim());
            fi::replay(sys.sim(), injector,
                       {fi::Injection::into_memory(w, fi::kRandomBit, 10,
                                                   options.severe_period)},
                       options.max_ticks, seed, stats);
            if (sys.plant().failure_report().failed()) ++result.failures_with_erm;
            result.repairs += bank.total_repairs();
            sys.sim().clear_recoverers();
        }
    }
    sys.sim().enable_trace(true);
    if (options.fastpath_out) options.fastpath_out->merge(stats);
    return result;
}

}  // namespace epea::exp
