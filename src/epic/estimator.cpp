#include "epic/estimator.hpp"

#include "obs/trace.hpp"

#include "fi/batch.hpp"
#include "fi/golden.hpp"
#include "util/rng.hpp"

namespace epea::epic {

PermeabilityMatrix PermeabilityEstimator::estimate(
    std::size_t case_count, const std::function<void(std::size_t)>& configure_case,
    const EstimatorOptions& options, const EstimatorProgress& progress) {
    const model::SystemModel& system = sim_->system();

    // counts[module][in * n_out + out]
    struct Count {
        std::uint64_t affected = 0;
        std::uint64_t active = 0;
    };
    std::vector<std::vector<Count>> counts(system.module_count());
    for (const model::ModuleId mid : system.all_modules()) {
        counts[mid.index()].assign(system.module(mid).pair_count(), Count{});
    }

    // Module filter (delta campaigns): skipped modules execute no runs
    // but still consume their stratified time draws below, keeping the
    // per-case stream aligned with an unfiltered run.
    std::vector<bool> included(system.module_count(), true);
    if (!options.module_filter.empty()) {
        included.assign(system.module_count(), false);
        for (const std::string& name : options.module_filter) {
            if (auto mid = system.find_module(name)) included[mid->index()] = true;
        }
    }

    // Plan size for progress reporting (filtered modules plan no runs).
    std::size_t total_bits = 0;
    for (const model::ModuleId mid : system.all_modules()) {
        if (!included[mid.index()]) continue;
        for (const model::SignalId in : system.module(mid).inputs) {
            total_bits += system.signal(in).width;
        }
    }
    const std::size_t total_runs = case_count * total_bits * options.times_per_bit;

    fi::BatchRunner batch(*sim_, *injector_);
    batch.set_mode(fi::BatchRunner::Mode::kPermeability);

    // Attribution seals, one per (module, injected port): the tally
    // below reads only the module's output first-diffs and — under
    // direct attribution — the other-input contamination minimum, so a
    // lane can retire as soon as those facts are decided (BatchRunner
    // SealRule semantics). The contamination witnesses are sound only
    // for direct attribution; the any-output-diff ablation keeps
    // waiting for output diffs that may still arrive.
    std::vector<std::vector<std::uint32_t>> seals(system.module_count());
    for (const model::ModuleId mid : system.all_modules()) {
        const auto& spec = system.module(mid);
        seals[mid.index()].resize(spec.input_count());
        for (std::uint32_t port = 0; port < spec.input_count(); ++port) {
            fi::BatchRunner::SealRule rule;
            if (options.direct_attribution) {
                for (std::uint32_t p = 0; p < spec.input_count(); ++p) {
                    if (p != port) rule.any_of.push_back(spec.inputs[p]);
                }
            }
            rule.all_of = spec.outputs;
            seals[mid.index()][port] = batch.add_seal_rule(std::move(rule));
        }
    }

    // Outcomes are tallied strictly in submission order, which fixes the
    // accumulation order.
    struct Tally {
        model::ModuleId mid;
        std::uint32_t port = 0;
        std::size_t ticket = 0;
    };
    std::vector<Tally> tallies;

    runs_ = 0;
    fastpath_ = {};
    for (std::size_t c = 0; c < case_count; ++c) {
        obs::Span case_span("epic.case", options.case_index_offset + c);
        std::uint64_t stream = options.seed + options.case_index_offset + c;
        util::Rng time_rng(util::splitmix64(stream));
        configure_case(c);
        injector_->disarm();
        // The case's golden run, freed with the case unless the caller
        // shares a cache. For the batched engine it carries boundary
        // snapshots every kPruneCheckPeriod ticks ("perm" context: no
        // monitors armed); the bare "trace" golden makes the runner replay
        // instead.
        batch.set_golden(nullptr);  // release the previous case's golden first
        const bool snapshots = options.use_batch && sim_->snapshot_supported();
        const std::size_t case_key = options.case_index_offset + c;
        const auto golden = fi::golden_for(
            options.golden_cache, fi::golden_key(snapshots ? "perm" : "trace", case_key),
            [&] { return fi::capture_golden_data(*sim_, options.max_ticks, snapshots); },
            &fastpath_);
        batch.set_golden(golden);
        const fi::GoldenRun& gr = golden->run;

        // Phase 1 submits every plan of the case (the stratified time
        // draws happen in a fixed order), phase 2 runs them, phase 3
        // tallies the outcomes.
        batch.clear();
        tallies.clear();
        for (const model::ModuleId mid : system.all_modules()) {
            const auto& spec = system.module(mid);
            for (std::uint32_t port = 0; port < spec.input_count(); ++port) {
                const unsigned width = system.signal(spec.inputs[port]).width;
                for (unsigned bit = 0; bit < width; ++bit) {
                    const auto ticks = fi::spread_ticks(
                        0, gr.length, options.times_per_bit,
                        options.stratified_times ? &time_rng : nullptr);
                    if (!included[mid.index()]) continue;  // draws consumed above
                    for (const runtime::Tick t : ticks) {
                        const auto inj =
                            fi::Injection::into_module_input(mid, port, bit, t);
                        tallies.push_back(
                            {mid, port, batch.submit(inj, seals[mid.index()][port])});
                    }
                }
            }
        }

        batch.flush();
        for (const Tally& tl : tallies) {
            ++runs_;
            if (progress) progress(runs_, total_runs);
            const fi::BatchOutcome& oc = batch.outcome(tl.ticket);
            if (!oc.fired) continue;  // inactive

            const auto& spec = system.module(tl.mid);
            const fi::DirectOutcome outcome = fi::attribute_direct_from_first_diff(
                system, tl.mid, tl.port, oc.first_diff);
            for (std::uint32_t k = 0; k < spec.output_count(); ++k) {
                Count& cnt = counts[tl.mid.index()][tl.port * spec.output_count() + k];
                ++cnt.active;
                const bool hit = options.direct_attribution
                                     ? outcome.affected[k]
                                     : outcome.first_diff[k] != runtime::kInvalidTick;
                if (hit) ++cnt.affected;
            }
        }
    }
    injector_->disarm();
    fastpath_.merge(batch.stats());

    PermeabilityMatrix pm(system);
    for (const model::ModuleId mid : system.all_modules()) {
        const auto& spec = system.module(mid);
        for (std::uint32_t port = 0; port < spec.input_count(); ++port) {
            for (std::uint32_t k = 0; k < spec.output_count(); ++k) {
                const Count& cnt = counts[mid.index()][port * spec.output_count() + k];
                pm.set_counts(mid, port, k, cnt.affected, cnt.active);
            }
        }
    }
    return pm;
}

}  // namespace epea::epic
