// serve_mixed: an in-process daemon (serve::Service behind serve::HttpServer
// on a loopback ephemeral port) under an open-loop mixed load from this
// process. Requests are due on a fixed schedule at kOfferedRate; each of
// the kConnections keep-alive connections sends its share in order, as
// soon as a request is due and the previous reply is in. A sender sleeps
// until just before a request is due and spins the rest, so a late timer
// wake-up neither delays sends nor enters the latency. Latency is timed
// from the due time, so a stall also charges the requests queued behind
// it; CPU per request excludes the senders' CPU.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <sys/prctl.h>
#include <time.h>

#include "analysis/model_lint.hpp"
#include "analytic/benefit.hpp"
#include "analytic/engine.hpp"
#include "bench.hpp"
#include "epic/serialize.hpp"
#include "exp/paper_data.hpp"
#include "opt/optimizer.hpp"
#include "prove/hints.hpp"
#include "serve/client.hpp"
#include "serve/http.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace epea;

/// Offered load, requests/s. Closed-loop capacity of this mix over two
/// connections measured 10.5k-13.8k req/s on a shared 4-core host
/// (`perfbench --capacity`), but the host's slow phases cut it by more
/// than half, and at 4000 req/s those phases pushed the daemon into a
/// backlog that dominated every latency figure. At 2000 req/s the
/// daemon keeps up through them.
constexpr double kOfferedRate = 2000.0;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kServerThreads = 2;
/// A sender sleeps (with minimal timer slack) until this long before a
/// request is due, then spins.
constexpr auto kSpinWindow = std::chrono::microseconds(50);
/// Daemon start-ups per run, kSetupGap apart so they sample the host's
/// fast and slow phases alike; setup_s is their median.
constexpr std::size_t kSetupReps = 21;
constexpr auto kSetupGap = std::chrono::milliseconds(100);
/// The window is cut into sub-windows by due time; latency percentiles
/// are medians of the sub-windows' percentiles, so one burst of host
/// noise moves one sub-window, not the reported figure.
constexpr double kSubWindowS = 1.0;
/// Percentile reported as the end-to-end tail. The p99 split into two
/// modes across runs (1.1-1.2 ms, or 2-4 ms while the host preempted the
/// VM's vCPUs for milliseconds at a time), too far apart for any bound the
/// benchmark may set; the p95 moves with the host's speed only. The p99
/// stays reported, unbounded, as the per-layer serve.latency_p99_ms.
constexpr double kTailQuantile = 0.95;
/// Latency charged to a failed request: it misses every limit.
constexpr double kFailedLatencyMs = 1e9;

enum Kind : std::size_t { kPair, kProfile, kOptimize, kLint, kHealthz, kKinds };
constexpr const char* kKindNames[kKinds] = {"predict_pair", "predict_profile", "optimize",
                                            "lint", "healthz"};
/// Requests of each kind in every block of 20 (60/15/10/10/5 %).
constexpr std::size_t kBlockMix[kKinds] = {12, 3, 2, 2, 1};
constexpr std::size_t kBlock = 20;

struct Request {
    Kind kind = kHealthz;
    std::string method;
    std::string target;
    std::string body;
    std::string expected;  ///< body service.handle returns before timing
};

/// The distinct requests of the mix, grouped by kind.
struct Catalogue {
    std::vector<Request> requests;
    std::vector<std::size_t> by_kind[kKinds];

    void add(Kind kind, std::string method, std::string target, std::string body) {
        by_kind[kind].push_back(requests.size());
        requests.push_back({kind, std::move(method), std::move(target), std::move(body), {}});
    }
};

std::string model_text(const model::SystemModel& system) {
    std::ostringstream os;
    epic::save_system_text(os, system);
    return os.str();
}

Catalogue make_catalogue(const model::SystemModel& system) {
    Catalogue cat;
    for (const model::SignalId s : system.all_signals()) {
        cat.add(kPair, "POST", "/v1/analytic/predict",
                "{\"sink\":\"TOC2\",\"source\":\"" + system.signal_name(s) + "\"}");
    }
    cat.add(kProfile, "POST", "/v1/analytic/predict", "{\"sink\":\"TOC2\"}");
    cat.add(kOptimize, "POST", "/v1/place/optimize",
            "{\"benefit\":\"analytic\",\"error_model\":\"input\"}");
    cat.add(kOptimize, "POST", "/v1/place/optimize",
            "{\"benefit\":\"analytic\",\"budget_memory\":250,\"error_model\":\"input\"}");
    util::JsonObject lint;
    lint.emplace("kind", util::JsonValue(std::string("model")));
    lint.emplace("text", util::JsonValue(model_text(system)));
    cat.add(kLint, "POST", "/v1/lint", util::JsonValue(std::move(lint)).dump());
    cat.add(kHealthz, "GET", "/healthz", "");
    return cat;
}

serve::HttpRequest to_http(const Request& r) {
    serve::HttpRequest req;
    req.method = r.method;
    req.target = r.target;
    req.version = "HTTP/1.1";
    req.body = r.body;
    return req;
}

/// Catalogue indices in send order: blocks of kBlock with the exact mix,
/// shuffled by the seed; the predict source and optimize budget are
/// drawn from it too.
std::vector<std::size_t> make_schedule(const Catalogue& cat, std::size_t count,
                                       std::uint64_t seed) {
    std::vector<std::size_t> order;
    order.reserve(count + kBlock);
    std::uint64_t state = seed ^ 0x5e7e5eedULL;
    while (order.size() < count) {
        std::vector<std::size_t> block;
        for (std::size_t k = 0; k < kKinds; ++k) {
            for (std::size_t i = 0; i < kBlockMix[k]; ++i) {
                const auto& choices = cat.by_kind[k];
                block.push_back(choices[util::splitmix64(state) % choices.size()]);
            }
        }
        seeded_shuffle(block, util::splitmix64(state));
        order.insert(order.end(), block.begin(), block.end());
    }
    order.resize(count);
    return order;
}

/// Handler-side timing for the traced window: the benchmark's handler
/// lambda times service.handle for requests tagged `?seq=N`.
struct HandlerLog {
    std::atomic<bool> recording{false};
    std::unique_ptr<std::atomic<std::uint64_t>[]> handler_ns;
    std::size_t size = 0;

    void reset(std::size_t n) {
        handler_ns = std::make_unique<std::atomic<std::uint64_t>[]>(n);
        size = n;
    }
};

/// A started daemon: service plus HTTP server; the server stops first.
struct Daemon {
    std::unique_ptr<serve::Service> service;
    std::unique_ptr<serve::HttpServer> server;

    ~Daemon() {
        if (server) server->shutdown();
    }
};

std::unique_ptr<Daemon> start_daemon(HandlerLog& log) {
    auto d = std::make_unique<Daemon>();
    serve::ServiceOptions so;
    so.tool_version = "perfbench";
    d->service = std::make_unique<serve::Service>(std::move(so));
    serve::ServerOptions server_options;
    server_options.port = 0;
    server_options.threads = kServerThreads;
    serve::Service* service = d->service.get();
    d->server = std::make_unique<serve::HttpServer>(
        server_options, [service, &log](const serve::HttpRequest& req) {
            if (!log.recording.load(std::memory_order_relaxed)) return service->handle(req);
            serve::HttpRequest plain = req;
            std::size_t seq = log.size;
            const std::size_t q = plain.target.find("?seq=");
            if (q != std::string::npos) {
                seq = std::stoul(plain.target.substr(q + 5));
                plain.target.resize(q);
            }
            const auto t0 = Clock::now();
            serve::HttpResponse resp = service->handle(plain);
            const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                Clock::now() - t0)
                                .count();
            if (seq < log.size) {
                log.handler_ns[seq].store(static_cast<std::uint64_t>(ns),
                                          std::memory_order_relaxed);
            }
            return resp;
        });
    d->server->start();
    // Memo warm-up sweep: every source's reach profile solved once.
    for (const model::SignalId s : d->service->system().all_signals()) {
        Request warm{kPair, "POST", "/v1/analytic/predict",
                     "{\"sink\":\"TOC2\",\"source\":\"" +
                         d->service->system().signal_name(s) + "\"}",
                     {}};
        if (d->service->handle(to_http(warm)).status != 200) {
            throw std::runtime_error("warm-up predict failed");
        }
    }
    return d;
}

double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One request sent in a timed window.
struct Sample {
    std::size_t index = 0;    ///< position in the schedule (the ?seq= tag)
    std::size_t request = 0;  ///< catalogue index
    double due_s = 0.0;       ///< due time from the window start
    double late_ms = 0.0;     ///< send time minus due time
    double rtt_us = 0.0;      ///< send to reply
    double latency_ms = kFailedLatencyMs;  ///< due time to reply; kFailedLatencyMs if failed
    bool ok = false;
};

/// Outcome of one timed window.
struct Window {
    std::vector<Sample> samples;
    std::uint64_t failed = 0;
    double wall_s = 0.0;
    double cpu_s = 0.0;  ///< process CPU minus the senders' own
    std::vector<std::string> errors;

    [[nodiscard]] std::vector<double> column(double Sample::*field) const {
        std::vector<double> out;
        out.reserve(samples.size());
        for (const Sample& s : samples) out.push_back(s.*field);
        return out;
    }
};

/// Sends `order` over kConnections connections; request i is due at
/// start + i / rate (rate <= 0: all due at once, i.e. a closed loop) and
/// is not sent once `deadline_s` has passed.
Window run_window(std::uint16_t port, const Catalogue& cat,
                  const std::vector<std::size_t>& order, double rate, double deadline_s,
                  bool tag_seq) {
    std::vector<std::vector<Sample>> per_conn(kConnections);
    std::vector<std::string> errors(kConnections);
    std::vector<double> sender_cpu_s(kConnections, 0.0);

    const double cpu0 = process_cpu_s();
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(deadline_s));
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
            // The default 50 us slack would make every wake-up late.
            prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
            const double thread_cpu0 = thread_cpu_s();
            auto client = std::make_unique<serve::HttpClient>(port);
            for (std::size_t i = c; i < order.size(); i += kConnections) {
                const auto due =
                    rate > 0 ? start + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(
                                               static_cast<double>(i) / rate))
                             : start;
                if (Clock::now() < due - kSpinWindow) {
                    std::this_thread::sleep_until(due - kSpinWindow);
                }
                while (Clock::now() < due) {
                }
                const auto t_send = Clock::now();
                if (t_send > deadline) break;
                const Request& r = cat.requests[order[i]];
                Sample sample;
                sample.index = i;
                sample.request = order[i];
                sample.due_s = std::chrono::duration<double>(due - start).count();
                sample.late_ms = 1e3 * std::chrono::duration<double>(t_send - due).count();
                try {
                    const std::string target =
                        tag_seq ? r.target + "?seq=" + std::to_string(i) : r.target;
                    const serve::ClientResponse resp =
                        client->request(r.method, target, r.body);
                    const auto t_done = Clock::now();
                    sample.rtt_us =
                        1e6 * std::chrono::duration<double>(t_done - t_send).count();
                    sample.ok = resp.status == 200 && resp.body == r.expected;
                    if (sample.ok) {
                        sample.latency_ms =
                            1e3 * std::chrono::duration<double>(t_done - due).count();
                    } else if (errors[c].empty()) {
                        errors[c] = r.method + " " + r.target + " -> " +
                                    std::to_string(resp.status) +
                                    (resp.status == 200 ? " (body differs)" : "");
                    }
                } catch (const std::exception& e) {
                    if (errors[c].empty()) errors[c] = e.what();
                    client = std::make_unique<serve::HttpClient>(port);
                }
                per_conn[c].push_back(sample);
            }
            sender_cpu_s[c] = thread_cpu_s() - thread_cpu0;
        });
    }
    for (std::thread& t : threads) t.join();

    Window w;
    w.wall_s = seconds_since(start);
    w.cpu_s = process_cpu_s() - cpu0 - sum(sender_cpu_s);
    for (const auto& samples : per_conn) {
        for (const Sample& s : samples) {
            w.samples.push_back(s);
            if (!s.ok) ++w.failed;
        }
    }
    for (const std::string& e : errors) {
        if (!e.empty()) w.errors.push_back(e);
    }
    return w;
}

/// Median over kSubWindowS sub-windows of the q-quantile of latency.
double subwindow_latency_ms(const Window& w, double q) {
    std::vector<std::vector<double>> parts;
    for (const Sample& s : w.samples) {
        const auto part = static_cast<std::size_t>(s.due_s / kSubWindowS);
        if (part >= parts.size()) parts.resize(part + 1);
        parts[part].push_back(s.latency_ms);
    }
    std::vector<double> per_part;
    for (const auto& p : parts) {
        if (!p.empty()) per_part.push_back(quantile(p, q));
    }
    return median(per_part);
}

void score_window(const Window& w, Result& result) {
    result.attempted += w.samples.size();
    result.failed += w.failed;
    for (const std::string& e : w.errors) result.notes.push_back("request error: " + e);
    result.check(w.failed == 0, std::to_string(w.samples.size() - w.failed) + "/" +
                                    std::to_string(w.samples.size()) +
                                    " responses were 200 and byte-equal to the "
                                    "pre-computed bodies");
}

/// Median of `repeat` timings (ms) of `fn`.
template <typename Fn>
double median_ms(int repeat, const Fn& fn) {
    std::vector<double> ms;
    for (int i = 0; i < repeat; ++i) {
        const auto t0 = Clock::now();
        fn();
        ms.push_back(1e3 * seconds_since(t0));
    }
    return median(ms);
}

/// Layer timings from direct calls into the public entry points the
/// daemon's handlers use.
void report_direct_layers(const model::SystemModel& system, Result& result) {
    const epic::PermeabilityMatrix pm = exp::paper_matrix(system);
    const analytic::Engine engine(pm);
    std::vector<double> solve_us;
    for (int rep = 0; rep < 5; ++rep) {
        for (const model::SignalId s : system.all_signals()) {
            const auto t0 = Clock::now();
            const analytic::ReachProfile p = engine.solve(s);
            solve_us.push_back(1e6 * seconds_since(t0));
            if (p.visibility.empty()) throw std::runtime_error("empty reach profile");
        }
    }
    result.set("analytic.solve_us_p50", median(solve_us), "us");

    std::vector<double> opt_ms, hint_ms;
    opt::SearchResult last;
    for (int rep = 0; rep < 15; ++rep) {
        const auto t0 = Clock::now();
        opt::PlacementOptimizer optimizer =
            analytic::make_engine_optimizer(pm, opt::ErrorModel::kInput);
        const auto t1 = Clock::now();
        prove::attach_structural_hints(optimizer, pm, opt::ErrorModel::kInput);
        const auto t2 = Clock::now();
        last = optimizer.optimize({});
        const auto t3 = Clock::now();
        opt_ms.push_back(1e3 * (std::chrono::duration<double>(t1 - t0).count() +
                                std::chrono::duration<double>(t3 - t2).count()));
        hint_ms.push_back(1e3 * std::chrono::duration<double>(t2 - t1).count());
    }
    result.set("opt.optimize_ms", median(opt_ms), "ms");
    result.set("prove.hints_ms", median(hint_ms), "ms");
    result.set("opt.evaluations", static_cast<double>(last.evaluations), "count");
    result.set("opt.structural_prunes", static_cast<double>(last.structural_prunes), "count");

    const std::string text = model_text(system);
    result.set("analysis.lint_model_ms", median_ms(15, [&] {
                   std::istringstream in(text);
                   (void)analysis::lint_model_text(in, "model:bench");
               }),
               "ms");
}

void report_serve_layers(const Window& untraced, const Window& traced, const Catalogue& cat,
                         const HandlerLog& log, const serve::MemoStats& memo0,
                         const serve::MemoStats& memo1, std::uint64_t joins, Result& result) {
    std::vector<double> handler_us[kKinds];
    std::vector<double> overhead_us;
    for (const Sample& s : traced.samples) {
        const std::uint64_t ns = log.handler_ns[s.index].load(std::memory_order_relaxed);
        if (ns == 0) continue;
        const double us = 1e-3 * static_cast<double>(ns);
        handler_us[cat.requests[s.request].kind].push_back(us);
        overhead_us.push_back(s.rtt_us - us);
    }
    for (std::size_t k = 0; k < kKinds; ++k) {
        result.set(std::string("serve.handler_us_p50.") + kKindNames[k],
                   median(handler_us[k]), "us");
        result.set(std::string("serve.handler_us_p99.") + kKindNames[k],
                   quantile(handler_us[k], 0.99), "us");
    }
    result.set("serve.latency_p99_ms", subwindow_latency_ms(untraced, 0.99), "ms");
    result.set("serve.rtt_us_p50", median(traced.column(&Sample::rtt_us)), "us");
    result.set("serve.http_overhead_us_p50", median(overhead_us), "us");
    const double hits = static_cast<double>(memo1.hits - memo0.hits);
    const double misses = static_cast<double>(memo1.misses - memo0.misses);
    result.set("serve.memo_hit_frac", hits + misses > 0 ? hits / (hits + misses) : 0.0,
               "frac");
    result.set("serve.memo_misses", misses, "count");
    result.set("serve.singleflight_joins", static_cast<double>(joins), "count");
    result.set("loadgen.sent", static_cast<double>(traced.samples.size()), "count");
    result.set("loadgen.late_ms_p99", quantile(traced.column(&Sample::late_ms), 0.99), "ms");
    const double cpu_untraced = untraced.cpu_s / static_cast<double>(untraced.samples.size());
    const double cpu_traced = traced.cpu_s / static_cast<double>(traced.samples.size());
    result.set("obs.trace_overhead_pct", 100.0 * (cpu_traced / cpu_untraced - 1.0), "%");
}

}  // namespace

Result run_serve_mixed(const Options& options) {
    Result result;
    HandlerLog log;

    // Set-up: daemon construction, server start and memo warm-up, several
    // times; the last daemon serves the run.
    std::vector<double> setup_s;
    std::unique_ptr<Daemon> daemon;
    for (std::size_t i = 0; i < kSetupReps; ++i) {
        daemon.reset();
        std::this_thread::sleep_for(kSetupGap);
        const auto t0 = Clock::now();
        daemon = start_daemon(log);
        setup_s.push_back(seconds_since(t0));
    }
    serve::Service& service = *daemon->service;
    const std::uint16_t port = daemon->server->port();

    // Expected bodies, straight from the handler, before any timing.
    Catalogue cat = make_catalogue(service.system());
    for (Request& r : cat.requests) {
        const serve::HttpResponse resp = service.handle(to_http(r));
        if (resp.status != 200) {
            throw std::runtime_error(r.method + " " + r.target + " answered " +
                                     std::to_string(resp.status) + " before timing");
        }
        r.expected = resp.body;
    }

    if (options.capacity) {
        // Generously more requests than two connections can send in time.
        const auto count = static_cast<std::size_t>(std::ceil(50'000 * options.seconds));
        const Window w = run_window(port, cat, make_schedule(cat, count, options.seed), 0.0,
                                    options.seconds, false);
        score_window(w, result);
        result.set("capacity_rps",
                   static_cast<double>(w.samples.size() - w.failed) / w.wall_s, "1/s");
        result.set("latency_p50_ms", median(w.column(&Sample::rtt_us)) / 1e3, "ms");
        return result;
    }

    const double window_s = options.trace ? options.seconds / 2 : options.seconds;
    const auto count = static_cast<std::size_t>(std::ceil(kOfferedRate * window_s));
    const Window untraced = run_window(port, cat, make_schedule(cat, count, options.seed),
                                       kOfferedRate, window_s + 1.0, false);
    score_window(untraced, result);
    if (!options.trace) {
        result.set("setup_s", median(setup_s), "s");
        const auto sent = static_cast<double>(untraced.samples.size());
        result.set("throughput_per_s", (sent - static_cast<double>(untraced.failed)) /
                                           untraced.wall_s,
                   "1/s");
        result.set("cpu_us_per_op", 1e6 * untraced.cpu_s / sent, "us");
        result.set("latency_p50_ms", subwindow_latency_ms(untraced, 0.5), "ms");
        result.set("latency_tail_ms", subwindow_latency_ms(untraced, kTailQuantile), "ms");
        result.set("peak_rss_mb", peak_rss_mb(), "MB");
        char line[200];
        std::snprintf(line, sizeof line,
                      "open loop %.0f req/s over %zu connections: %llu requests, "
                      "%.0f beyond p99 in each %.0f s sub-window; p99 %.3f ms",
                      kOfferedRate, kConnections,
                      static_cast<unsigned long long>(untraced.samples.size()),
                      kOfferedRate * kSubWindowS / 100, kSubWindowS,
                      subwindow_latency_ms(untraced, 0.99));
        result.notes.push_back(line);
        result.check(kOfferedRate * kSubWindowS >= 1100,
                     "at least 10 samples beyond p99");
        return result;
    }

    init_per_layer(result);
    SpanLog spans;
    const std::uint64_t dropped0 = obs::Tracer::instance().dropped();
    const serve::MemoStats memo0 = service.memo_stats();
    const std::uint64_t joins0 = service.singleflight_joins();
    log.reset(count);
    Window traced;
    {
        const TraceSession session;
        log.recording.store(true);
        traced = run_window(port, cat, make_schedule(cat, count, options.seed + 1),
                            kOfferedRate, window_s + 1.0, true);
        log.recording.store(false);
    }
    score_window(traced, result);
    (void)spans.drain();
    result.set("obs.spans_dropped",
               static_cast<double>(obs::Tracer::instance().dropped() - dropped0), "count");
    report_serve_layers(untraced, traced, cat, log, memo0, service.memo_stats(),
                        service.singleflight_joins() - joins0, result);
    report_direct_layers(service.system(), result);

    const std::string trace_path = options.work_dir + "/" + options.workload + "-seed" +
                                   std::to_string(options.seed) + ".trace.json";
    spans.write(trace_path);
    result.notes.push_back("spans written to " + trace_path);
    return result;
}

}  // namespace perfbench
