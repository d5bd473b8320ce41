#include "exp/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "epic/estimator.hpp"
#include "fi/injector.hpp"
#include "obs/trace.hpp"

namespace epea::exp {

epic::PermeabilityMatrix estimate_arrestment_permeability_parallel(
    const CampaignOptions& options, unsigned threads) {
    const auto cases = target::standard_test_cases();
    const std::size_t case_count = std::min(options.case_count, cases.size());
    if (threads == 0) {
        threads = std::max(1U, std::thread::hardware_concurrency());
    }
    threads = static_cast<unsigned>(
        std::min<std::size_t>(threads, std::max<std::size_t>(1, case_count)));

    // Next global case index to claim (simple work stealing).
    std::atomic<std::size_t> next_case{0};

    // Each worker produces one matrix over its claimed cases; merged at
    // the end. Matrices reference worker-local SystemModels, so workers
    // only report raw counts keyed by (module, in, out).
    struct PairCount {
        std::uint64_t affected = 0;
        std::uint64_t active = 0;
    };
    std::mutex merge_mutex;
    std::vector<PairCount> merged;
    fi::FastPathStats merged_stats;
    std::exception_ptr first_error;

    auto worker = [&]() {
        try {
            target::ArrestmentSystem sys;
            fi::Injector injector(sys.sim());
            epic::PermeabilityEstimator estimator(sys.sim(), injector);

            std::vector<PairCount> local;
            fi::FastPathStats local_stats;
            for (;;) {
                const std::size_t c = next_case.fetch_add(1);
                if (c >= case_count) break;

                epic::EstimatorOptions eopt;
                eopt.times_per_bit = options.times_per_bit;
                eopt.max_ticks = options.max_ticks;
                eopt.case_index_offset = c;  // global stream key
                eopt.use_batch = options.use_batch;
                // The GoldenCache is mutex-protected and snapshot data is
                // value-based, so a shared cache is safe across workers.
                eopt.golden_cache = options.golden_cache;
                eopt.module_filter = options.module_filter;
                const epic::PermeabilityMatrix pm = estimator.estimate(
                    1, [&](std::size_t) { sys.configure(cases[c]); }, eopt);
                local_stats.merge(estimator.fastpath_stats());

                const auto entries = pm.entries();
                if (local.empty()) local.resize(entries.size());
                for (std::size_t k = 0; k < entries.size(); ++k) {
                    const auto counts =
                        pm.counts(entries[k].module, entries[k].in_port,
                                  entries[k].out_port);
                    local[k].affected += counts.hits;
                    local[k].active += counts.trials;
                }
            }

            const std::scoped_lock lock(merge_mutex);
            if (merged.empty()) merged.resize(local.size());
            for (std::size_t k = 0; k < local.size(); ++k) {
                merged[k].affected += local[k].affected;
                merged[k].active += local[k].active;
            }
            merged_stats.merge(local_stats);
        } catch (...) {
            const std::scoped_lock lock(merge_mutex);
            if (!first_error) first_error = std::current_exception();
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&worker, t] {
            obs::set_thread_name("worker-" + std::to_string(t));
            worker();
        });
    }
    for (auto& t : pool) t.join();
    if (first_error) std::rethrow_exception(first_error);
    if (options.fastpath_out) options.fastpath_out->merge(merged_stats);

    // The returned matrix must reference a SystemModel that outlives it;
    // a process-lifetime instance of the (immutable) arrestment model
    // keeps ownership simple. Construction is deterministic, so ids and
    // entry order match any other arrestment-model instance.
    static const model::SystemModel kModel = target::make_arrestment_model();
    epic::PermeabilityMatrix result(kModel);
    const auto entries = result.entries();
    for (std::size_t k = 0; k < entries.size() && k < merged.size(); ++k) {
        result.set_counts(entries[k].module, entries[k].in_port, entries[k].out_port,
                          merged[k].affected, merged[k].active);
    }
    return result;
}

}  // namespace epea::exp
