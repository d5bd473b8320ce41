#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "analysis/finding.hpp"
#include "analysis/matrix_lint.hpp"
#include "analysis/model_lint.hpp"
#include "analytic/benefit.hpp"
#include "analytic/report.hpp"
#include "campaign/executor.hpp"
#include "campaign/observer.hpp"
#include "epic/serialize.hpp"
#include "exp/paper_data.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/optimizer.hpp"
#include "opt/report.hpp"
#include "prove/hints.hpp"
#include "target/arrestment_system.hpp"
#include "util/json.hpp"

namespace epea::serve {

namespace {

/// Handler error that already knows its HTTP status; everything the
/// client did wrong becomes one of these.
struct ServeError {
    int status;
    std::string object;
    std::string message;
};

/// Finding-style error body, shape-compatible with analysis::write_json
/// so clients parse one error format everywhere. The pseudo-rule
/// SERVE-E<status> deliberately lives outside the lint catalog (Report::
/// add would reject it) — serve transport errors are not lint findings.
HttpResponse error_response(int status, const std::string& object,
                            const std::string& message) {
    util::JsonObject finding;
    finding.emplace("artifact", util::JsonValue("serve:request"));
    finding.emplace("message", util::JsonValue(message));
    finding.emplace("object", util::JsonValue(object));
    finding.emplace("rule", util::JsonValue("SERVE-E" + std::to_string(status)));
    finding.emplace("severity", util::JsonValue("error"));
    util::JsonArray findings;
    findings.emplace_back(std::move(finding));
    util::JsonObject o;
    o.emplace("errors", util::JsonValue(1));
    o.emplace("findings", util::JsonValue(std::move(findings)));
    o.emplace("warnings", util::JsonValue(0));
    return HttpResponse::json(status, util::JsonValue(std::move(o)).dump() + "\n");
}

enum class Ep : std::size_t {
    kHealthz = 0,
    kVersion,
    kMetrics,
    kPredict,
    kOptimize,
    kLint,
    kCampaignSubmit,
    kCampaignStatus,
    kCampaignEvents,
    kOther,
    kCount,
};

struct EpInfo {
    const char* span;
    const char* counter;
    const char* histogram;
};

// Metric names are literals so the EPEA-W060 source lint sees them.
constexpr EpInfo kEpInfo[static_cast<std::size_t>(Ep::kCount)] = {
    {"serve.healthz", "serve.requests.healthz", "serve.latency.healthz"},
    {"serve.version", "serve.requests.version", "serve.latency.version"},
    {"serve.metrics", "serve.requests.metrics", "serve.latency.metrics"},
    {"serve.predict", "serve.requests.predict", "serve.latency.predict"},
    {"serve.optimize", "serve.requests.optimize", "serve.latency.optimize"},
    {"serve.lint", "serve.requests.lint", "serve.latency.lint"},
    {"serve.campaign_submit", "serve.requests.campaign_submit",
     "serve.latency.campaign_submit"},
    {"serve.campaign_status", "serve.requests.campaign_status",
     "serve.latency.campaign_status"},
    {"serve.campaign_events", "serve.requests.campaign_events",
     "serve.latency.campaign_events"},
    {"serve.other", "serve.requests.other", "serve.latency.other"},
};

std::vector<double> latency_bounds() {
    return {5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2,
            2.5e-2, 5e-2, 0.1,   0.25, 0.5,  1.0,   2.5,  5.0};
}

struct EpMetrics {
    obs::Counter* requests;
    obs::Histogram* latency;
};

EpMetrics& metrics_for(Ep ep) {
    static EpMetrics table[static_cast<std::size_t>(Ep::kCount)] = {};
    static std::once_flag once;
    std::call_once(once, [] {
        obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
        for (std::size_t i = 0; i < static_cast<std::size_t>(Ep::kCount); ++i) {
            table[i].requests = &reg.counter(kEpInfo[i].counter);
            table[i].latency = &reg.histogram(kEpInfo[i].histogram, latency_bounds());
        }
    });
    return table[static_cast<std::size_t>(ep)];
}

struct ServeCounters {
    obs::Counter* memo_hits;
    obs::Counter* memo_misses;
    obs::Counter* sf_leads;
    obs::Counter* sf_joins;
    obs::Counter* campaigns;
    obs::Counter* errors;
};

ServeCounters& counters() {
    static ServeCounters c = [] {
        obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
        return ServeCounters{&reg.counter("serve.memo.hits"),
                             &reg.counter("serve.memo.misses"),
                             &reg.counter("serve.singleflight.leads"),
                             &reg.counter("serve.singleflight.joins"),
                             &reg.counter("serve.optimize.campaigns"),
                             &reg.counter("serve.errors")};
    }();
    return c;
}

/// /v1/campaign/<id><suffix> → id, or empty when the target is no match.
std::string campaign_path_id(const std::string& target, const std::string& suffix) {
    const std::string prefix = "/v1/campaign/";
    if (target.rfind(prefix, 0) != 0 || target.size() <= prefix.size() + suffix.size()) {
        return "";
    }
    if (target.compare(target.size() - suffix.size(), suffix.size(), suffix) != 0) {
        return "";
    }
    const std::string id =
        target.substr(prefix.size(), target.size() - prefix.size() - suffix.size());
    return id.find('/') == std::string::npos ? id : "";
}

Ep classify(const HttpRequest& req, std::string& campaign_id) {
    const std::string& t = req.target;
    if (t == "/healthz") return Ep::kHealthz;
    if (t == "/version") return Ep::kVersion;
    if (t == "/metrics") return Ep::kMetrics;
    if (t == "/v1/analytic/predict") return Ep::kPredict;
    if (t == "/v1/place/optimize") return Ep::kOptimize;
    if (t == "/v1/lint") return Ep::kLint;
    if (t == "/v1/campaign/submit") return Ep::kCampaignSubmit;
    campaign_id = campaign_path_id(t, "/status");
    if (!campaign_id.empty()) return Ep::kCampaignStatus;
    campaign_id = campaign_path_id(t, "/events");
    if (!campaign_id.empty()) return Ep::kCampaignEvents;
    return Ep::kOther;
}

/// One SSE frame. The journal/timeline lines are single-line JSON, so a
/// single `data:` field frames each one.
std::string sse_event(const std::string& type, const std::string& data) {
    return "event: " + type + "\ndata: " + data + "\n\n";
}

/// Reads complete lines appended to `path` past `*offset` (at most
/// `max_bytes` per call, so one poll cannot balloon the send buffer),
/// advancing `*offset` past every full line consumed. A torn tail stays
/// unconsumed until its newline lands; a truncated/recreated file
/// restarts from 0.
std::vector<std::string> tail_lines(const std::string& path,
                                    std::uint64_t* offset,
                                    std::size_t max_bytes) {
    std::vector<std::string> lines;
    std::ifstream in(path, std::ios::binary);
    if (!in) return lines;
    in.seekg(0, std::ios::end);
    const auto size = static_cast<std::uint64_t>(in.tellg());
    if (size < *offset) *offset = 0;  // rewritten underneath us
    if (size == *offset) return lines;
    const std::size_t want =
        static_cast<std::size_t>(std::min<std::uint64_t>(size - *offset, max_bytes));
    std::string chunk(want, '\0');
    in.seekg(static_cast<std::streamoff>(*offset));
    in.read(chunk.data(), static_cast<std::streamsize>(want));
    chunk.resize(static_cast<std::size_t>(in.gcount()));
    std::size_t consumed = 0;
    std::size_t start = 0;
    for (;;) {
        const std::size_t nl = chunk.find('\n', start);
        if (nl == std::string::npos) break;
        if (nl > start) lines.push_back(chunk.substr(start, nl - start));
        start = nl + 1;
        consumed = start;
    }
    *offset += consumed;
    return lines;
}

/// Parses the request body as a JSON object; 400 otherwise.
util::JsonValue parse_body(const HttpRequest& req, const char* endpoint) {
    try {
        util::JsonValue v = util::JsonValue::parse(req.body);
        if (!v.is_object()) {
            throw std::runtime_error("request body must be a JSON object");
        }
        return v;
    } catch (const std::exception& e) {
        throw ServeError{400, endpoint, std::string("malformed JSON: ") + e.what()};
    }
}

/// The string at `key`, or `fallback` when the field is absent; 400
/// when the field holds another JSON type.
std::string opt_string(const util::JsonValue& body, const char* key,
                       const std::string& fallback, const char* endpoint) {
    const util::JsonValue* v = body.find(key);
    if (v == nullptr) return fallback;
    try {
        return v->as_string();
    } catch (const std::exception&) {
        throw ServeError{400, endpoint, std::string("'") + key + "' must be a string"};
    }
}

/// The number at `key`, or `fallback` when the field is absent; 400
/// when the field holds another JSON type.
double opt_number(const util::JsonValue& body, const char* key, double fallback,
                  const char* endpoint) {
    const util::JsonValue* v = body.find(key);
    if (v == nullptr) return fallback;
    try {
        return v->as_double();
    } catch (const std::exception&) {
        throw ServeError{400, endpoint, std::string("'") + key + "' must be a number"};
    }
}

/// Request-controlled sizing caps: an errant or hostile body must not
/// be able to demand unbounded work from one request.
constexpr std::int64_t kMaxRequestCases = 10'000;
constexpr std::int64_t kMaxRequestTimes = 10'000;

/// Validates `v` as an integer in [1, cap]; 400 otherwise. Negative
/// values in particular must never reach a size_t cast.
std::size_t positive_size(const util::JsonValue& v, const char* key,
                          std::int64_t cap, const char* endpoint) {
    std::int64_t n = 0;
    try {
        n = v.as_int();
    } catch (const std::exception&) {
        n = 0;  // non-integer: fails the range check below
    }
    if (n < 1 || n > cap) {
        throw ServeError{400, endpoint,
                         std::string("'") + key + "' must be an integer in 1.." +
                             std::to_string(cap)};
    }
    return static_cast<std::size_t>(n);
}

std::int64_t max_request_threads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::int64_t>(hw);
}

/// A submitted campaign dir must stay inside --eval-dir: relative only,
/// with no "." / ".." / empty path segments; 400 otherwise.
void validate_campaign_dir(const std::string& dir) {
    if (dir[0] == '/') {
        throw ServeError{400, "campaign_submit",
                         "'dir' must be relative to the daemon's --eval-dir"};
    }
    std::size_t start = 0;
    for (;;) {
        const std::size_t slash = dir.find('/', start);
        const std::string_view component =
            std::string_view(dir).substr(start, slash == std::string::npos
                                                    ? std::string::npos
                                                    : slash - start);
        if (component.empty() || component == "." || component == "..") {
            throw ServeError{400, "campaign_submit",
                             "'dir' must not contain empty, '.' or '..' "
                             "path segments"};
        }
        if (slash == std::string::npos) break;
        start = slash + 1;
    }
}

const char* kMethodNotAllowed = "method not allowed";

}  // namespace

Service::Service(ServiceOptions options)
    : options_(std::move(options)),
      reach_memo_(options_.memo_shards, options_.memo_entries_per_shard) {
    if (options_.model_path.empty()) {
        system_ = std::make_unique<model::SystemModel>(target::make_arrestment_model());
    } else {
        std::ifstream in(options_.model_path);
        if (!in) {
            throw std::runtime_error("serve: cannot read model " + options_.model_path);
        }
        system_ = std::make_unique<model::SystemModel>(epic::load_system_text(in));
    }
    if (options_.matrix_path.empty()) {
        pm_ = std::make_unique<epic::PermeabilityMatrix>(exp::paper_matrix(*system_));
    } else {
        std::ifstream in(options_.matrix_path);
        if (!in) {
            throw std::runtime_error("serve: cannot read matrix " + options_.matrix_path);
        }
        pm_ = std::make_unique<epic::PermeabilityMatrix>(
            epic::load_matrix_csv(in, *system_));
    }
    engine_ = std::make_unique<analytic::Engine>(*pm_);
}

Service::~Service() { join_campaigns(); }

void Service::join_campaigns() {
    // Snapshot under the lock, join outside it: a worker that fails
    // while we join takes its own error_mutex, never campaigns_mutex_,
    // so drain cannot deadlock against a failing campaign.
    std::vector<std::shared_ptr<CampaignJob>> jobs;
    {
        const std::lock_guard<std::mutex> lock(campaigns_mutex_);
        jobs.reserve(campaigns_.size());
        for (auto& [id, job] : campaigns_) jobs.push_back(job);
    }
    const std::lock_guard<std::mutex> join_lock(join_mutex_);
    for (const auto& job : jobs) {
        if (job->worker.joinable()) job->worker.join();
    }
}

std::shared_ptr<const analytic::ReachProfile> Service::profile(
    model::SignalId source) {
    auto [value, hit] = reach_memo_.get_or_compute(
        system_->signal_name(source), [&] { return engine_->solve(source); });
    (hit ? counters().memo_hits : counters().memo_misses)->add();
    return value;
}

HttpResponse Service::handle(const HttpRequest& req) {
    std::string endpoint = "other";
    HttpResponse resp;
    std::string campaign_id;
    const Ep ep = classify(req, campaign_id);
    endpoint = kEpInfo[static_cast<std::size_t>(ep)].span;
    obs::Span span(kEpInfo[static_cast<std::size_t>(ep)].span);
    const auto t0 = std::chrono::steady_clock::now();
    try {
        switch (ep) {
            case Ep::kHealthz:
                if (req.method != "GET") throw ServeError{405, endpoint, kMethodNotAllowed};
                resp = handle_healthz();
                break;
            case Ep::kVersion:
                if (req.method != "GET") throw ServeError{405, endpoint, kMethodNotAllowed};
                resp = handle_version();
                break;
            case Ep::kMetrics:
                if (req.method != "GET") throw ServeError{405, endpoint, kMethodNotAllowed};
                resp = handle_metrics();
                break;
            case Ep::kPredict:
                if (req.method != "POST") throw ServeError{405, endpoint, kMethodNotAllowed};
                resp = handle_predict(req);
                break;
            case Ep::kOptimize:
                if (req.method != "POST") throw ServeError{405, endpoint, kMethodNotAllowed};
                resp = handle_optimize(req);
                break;
            case Ep::kLint:
                if (req.method != "POST") throw ServeError{405, endpoint, kMethodNotAllowed};
                resp = handle_lint(req);
                break;
            case Ep::kCampaignSubmit:
                if (req.method != "POST") throw ServeError{405, endpoint, kMethodNotAllowed};
                resp = handle_campaign_submit(req);
                break;
            case Ep::kCampaignStatus:
                if (req.method != "GET") throw ServeError{405, endpoint, kMethodNotAllowed};
                resp = handle_campaign_status(campaign_id);
                break;
            case Ep::kCampaignEvents:
                if (req.method != "GET") throw ServeError{405, endpoint, kMethodNotAllowed};
                resp = handle_campaign_events(campaign_id);
                break;
            case Ep::kOther:
            case Ep::kCount:
                throw ServeError{404, req.target, "no such endpoint"};
        }
    } catch (const ServeError& e) {
        resp = error_response(e.status, e.object, e.message);
    } catch (const std::invalid_argument& e) {
        resp = error_response(400, endpoint, e.what());
    } catch (const std::exception& e) {
        resp = error_response(500, endpoint, e.what());
    }
    if (resp.status >= 400) counters().errors->add();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    EpMetrics& m = metrics_for(ep);
    m.requests->add();
    m.latency->observe(seconds);
    return resp;
}

HttpResponse Service::handle_healthz() { return HttpResponse::text(200, "ok\n"); }

HttpResponse Service::handle_version() {
    util::JsonObject o;
    o.emplace("build_type", util::JsonValue(obs::build_type()));
    o.emplace("obs_enabled", util::JsonValue(obs::kEnabled));
    o.emplace("version", util::JsonValue(options_.tool_version));
    return HttpResponse::json(200, util::JsonValue(std::move(o)).dump() + "\n");
}

HttpResponse Service::handle_metrics() {
    std::ostringstream os;
    obs::write_prometheus(os, obs::MetricsRegistry::global().snapshot());
    HttpResponse r = HttpResponse::text(200, os.str());
    r.content_type = "text/plain; version=0.0.4";
    return r;
}

HttpResponse Service::handle_predict(const HttpRequest& req) {
    const util::JsonValue body = parse_body(req, "predict");
    const std::string sink_name = opt_string(body, "sink", "TOC2", "predict");
    const model::SignalId sink = system_->signal_id(sink_name);

    if (body.find("source") != nullptr) {
        const std::string source_name = opt_string(body, "source", "", "predict");
        const auto p = profile(system_->signal_id(source_name));
        return HttpResponse::json(
            200, analytic::predict_pair_json(source_name, sink_name,
                                             p->visibility[sink.index()],
                                             p->converged));
    }

    std::vector<analytic::PredictRow> rows;
    bool converged = true;
    for (const model::SignalId s : system_->all_signals()) {
        analytic::PredictRow row;
        row.signal = system_->signal_name(s);
        row.exposure = engine_->exposure(s);
        if (s != sink) {
            const auto p = profile(s);
            row.impact = p->visibility[sink.index()];
            converged = converged && p->converged;
        }
        rows.push_back(std::move(row));
    }
    return HttpResponse::json(
        200, analytic::predict_profile_json(sink_name, rows, converged));
}

HttpResponse Service::handle_optimize(const HttpRequest& req) {
    const util::JsonValue body = parse_body(req, "optimize");
    const std::string benefit = opt_string(body, "benefit", "analytic", "optimize");
    const std::string error_model = opt_string(body, "error_model", "input", "optimize");
    if (benefit != "analytic" && benefit != "ground-truth") {
        throw ServeError{400, "optimize",
                         "unknown benefit '" + benefit + "' (analytic|ground-truth)"};
    }
    opt::ErrorModel model = opt::ErrorModel::kInput;
    try {
        model = opt::error_model_from_string(error_model);
    } catch (const std::exception& e) {
        throw ServeError{400, "optimize", e.what()};
    }

    opt::SearchOptions search;
    search.budget.memory =
        opt_number(body, "budget_memory", search.budget.memory, "optimize");
    search.budget.time = opt_number(body, "budget_time", search.budget.time, "optimize");
    opt::EvaluatorOptions gt;
    gt.model = model;
    gt.dir = options_.eval_dir;
    gt.cases = options_.gt_cases;
    gt.times_per_bit = options_.gt_times;
    gt.shards = options_.gt_shards;
    gt.threads = options_.gt_threads;
    if (const util::JsonValue* v = body.find("cases")) {
        gt.cases = positive_size(*v, "cases", kMaxRequestCases, "optimize");
    }
    if (const util::JsonValue* v = body.find("times")) {
        gt.times_per_bit = positive_size(*v, "times", kMaxRequestTimes, "optimize");
    }
    if (benefit == "ground-truth" && options_.eval_dir.empty()) {
        throw ServeError{503, "optimize",
                         "ground-truth benefit needs the daemon started with "
                         "--eval-dir"};
    }

    // Identical concurrent requests coalesce onto one computation; for
    // ground-truth that means exactly one campaign for N cold callers.
    util::JsonObject key_obj;
    key_obj.emplace("benefit", util::JsonValue(benefit));
    key_obj.emplace("budget_memory", util::JsonValue(search.budget.memory));
    key_obj.emplace("budget_time", util::JsonValue(search.budget.time));
    key_obj.emplace("cases", util::JsonValue(gt.cases));
    key_obj.emplace("error_model", util::JsonValue(error_model));
    key_obj.emplace("times", util::JsonValue(gt.times_per_bit));
    const std::string key = util::JsonValue(std::move(key_obj)).dump();

    auto [answer, led] = optimize_flight_.run(key, [&]() -> std::string {
        if (benefit == "ground-truth") {
            // subset_cache.json and the eval-* campaign directories are
            // one shared on-disk resource: evaluations serialize.
            const std::lock_guard<std::mutex> lock(gt_mutex_);
            opt::PlacementOptimizer optimizer =
                opt::PlacementOptimizer::ground_truth(gt);
            const opt::SearchResult result = optimizer.optimize(search);
            const std::size_t ran = optimizer.campaigns_executed();
            gt_campaigns_.fetch_add(ran, std::memory_order_relaxed);
            counters().campaigns->add(ran);
            return opt::optimize_result_json(result, optimizer.candidates(), model,
                                             benefit);
        }
        opt::PlacementOptimizer optimizer = analytic::make_engine_optimizer(*pm_, model);
        // Same certificate-derived pruning as the CLI, so responses stay
        // byte-identical to `epea_tool place optimize --json`.
        prove::attach_structural_hints(optimizer, *pm_, model);
        const opt::SearchResult result = optimizer.optimize(search);
        return opt::optimize_result_json(result, optimizer.candidates(), model,
                                         benefit);
    });
    (led ? counters().sf_leads : counters().sf_joins)->add();
    return HttpResponse::json(200, *answer);
}

HttpResponse Service::handle_lint(const HttpRequest& req) {
    const util::JsonValue body = parse_body(req, "lint");
    std::string kind;
    std::string text;
    try {
        kind = body.at("kind").as_string();
        text = body.at("text").as_string();
    } catch (const std::exception& e) {
        throw ServeError{400, "lint", e.what()};
    }
    std::istringstream in(text);
    analysis::Report report;
    if (kind == "model") {
        report = analysis::lint_model_text(in, "model:request");
    } else if (kind == "matrix") {
        report = analysis::lint_matrix_csv(in, *system_, "matrix:request");
    } else {
        throw ServeError{400, "lint", "unknown kind '" + kind + "' (model|matrix)"};
    }
    std::ostringstream os;
    analysis::write_json(os, report);
    return HttpResponse::json(200, os.str());
}

HttpResponse Service::handle_campaign_submit(const HttpRequest& req) {
    const util::JsonValue body = parse_body(req, "campaign_submit");
    if (body.find("dir") == nullptr) {
        throw ServeError{400, "campaign_submit", "missing 'dir'"};
    }
    const std::string raw_dir = opt_string(body, "dir", "", "campaign_submit");
    if (raw_dir.empty()) throw ServeError{400, "campaign_submit", "empty 'dir'"};
    validate_campaign_dir(raw_dir);
    if (options_.eval_dir.empty()) {
        throw ServeError{503, "campaign_submit",
                         "campaign submit needs the daemon started with "
                         "--eval-dir"};
    }
    const std::string dir = options_.eval_dir + "/" + raw_dir;

    campaign::CampaignSpec spec;
    if (const util::JsonValue* s = body.find("spec")) {
        try {
            spec = campaign::CampaignSpec::from_json(s->dump());
        } catch (const std::exception& e) {
            throw ServeError{400, "campaign_submit", e.what()};
        }
    } else {
        spec = campaign::CampaignSpec::defaults(
            campaign::campaign_kind_from_string(
                opt_string(body, "kind", "input", "campaign_submit")));
    }
    campaign::ExecutorOptions exec;
    exec.threads = 1;
    if (const util::JsonValue* t = body.find("threads")) {
        exec.threads =
            positive_size(*t, "threads", max_request_threads(), "campaign_submit");
    }
    if (const util::JsonValue* b = body.find("use_batch")) {
        try {
            exec.use_batch = b->as_bool();
        } catch (const std::exception&) {
            throw ServeError{400, "campaign_submit", "'use_batch' must be a boolean"};
        }
    }

    std::shared_ptr<CampaignJob> job;
    std::vector<std::shared_ptr<CampaignJob>> reaped;
    std::string id;
    {
        const std::lock_guard<std::mutex> lock(campaigns_mutex_);
        id = "c" + std::to_string(next_campaign_id_);
        job = std::make_shared<CampaignJob>();
        job->id = id;
        job->dir = dir;
        job->seq = next_campaign_id_++;
        campaigns_.emplace(id, job);

        // Reap: drop the oldest finished/failed jobs beyond the retention
        // cap so a long-lived daemon's table stays bounded (their on-disk
        // checkpoints remain the durable record; status answers 404).
        std::vector<std::shared_ptr<CampaignJob>> done;
        for (const auto& [jid, j] : campaigns_) {
            if (j->state.load(std::memory_order_acquire) != 0) done.push_back(j);
        }
        if (done.size() > options_.max_finished_jobs) {
            std::sort(done.begin(), done.end(),
                      [](const auto& a, const auto& b) { return a->seq < b->seq; });
            done.resize(done.size() - options_.max_finished_jobs);
            for (const auto& j : done) campaigns_.erase(j->id);
            reaped = std::move(done);
        }
    }
    // The worker holds the job alive via shared_ptr and touches only the
    // job's own error_mutex — never campaigns_mutex_ — so reap/drain can
    // join it without a lock-order cycle.
    job->worker = std::thread([job, dir, spec, exec] {
        try {
            campaign::CampaignExecutor executor(dir, spec);
            const bool finished = executor.run(exec);
            job->state.store(finished ? 1 : 3, std::memory_order_release);
        } catch (const std::exception& e) {
            {
                const std::lock_guard<std::mutex> lock(job->error_mutex);
                job->error = e.what();
            }
            job->state.store(2, std::memory_order_release);
        }
    });
    if (!reaped.empty()) {
        const std::lock_guard<std::mutex> join_lock(join_mutex_);
        for (const auto& j : reaped) {
            if (j->worker.joinable()) j->worker.join();
        }
    }

    util::JsonObject o;
    o.emplace("dir", util::JsonValue(dir));
    o.emplace("id", util::JsonValue(id));
    o.emplace("state", util::JsonValue("running"));
    return HttpResponse::json(202, util::JsonValue(std::move(o)).dump() + "\n");
}

HttpResponse Service::handle_campaign_status(const std::string& id) {
    std::shared_ptr<CampaignJob> job;
    {
        const std::lock_guard<std::mutex> lock(campaigns_mutex_);
        const auto it = campaigns_.find(id);
        if (it == campaigns_.end()) {
            throw ServeError{404, "campaign_status", "unknown campaign '" + id + "'"};
        }
        job = it->second;
    }
    static const char* kStates[] = {"running", "finished", "failed", "paused"};
    const int state = job->state.load(std::memory_order_acquire);
    std::string error;
    if (state == 2) {
        const std::lock_guard<std::mutex> lock(job->error_mutex);
        error = job->error;
    }

    util::JsonObject o;
    o.emplace("dir", util::JsonValue(job->dir));
    o.emplace("id", util::JsonValue(id));
    o.emplace("state", util::JsonValue(kStates[state]));
    if (state == 2) o.emplace("error", util::JsonValue(error));
    try {
        const campaign::CampaignStatus status = campaign::read_status(job->dir);
        o.emplace("complete", util::JsonValue(status.complete()));
        o.emplace("runs", util::JsonValue(status.runs));
        o.emplace("shards_done", util::JsonValue(status.shards_done));
        o.emplace("shards_total", util::JsonValue(status.shards_total));
    } catch (const std::exception&) {
        // spec.json not written yet (job thread still starting up).
        o.emplace("complete", util::JsonValue(false));
    }
    return HttpResponse::json(200, util::JsonValue(std::move(o)).dump() + "\n");
}

HttpResponse Service::handle_campaign_events(const std::string& id) {
    std::shared_ptr<CampaignJob> job;
    {
        const std::lock_guard<std::mutex> lock(campaigns_mutex_);
        const auto it = campaigns_.find(id);
        if (it == campaigns_.end()) {
            throw ServeError{404, "campaign_events", "unknown campaign '" + id + "'"};
        }
        job = it->second;
    }

    HttpResponse r;
    r.status = 200;
    r.content_type = "text/event-stream";
    // The writer runs on the HTTP worker thread after handle() returns.
    // It owns the job via shared_ptr, so a reaped job keeps streaming
    // its terminal state; per-poll reads are bounded (64 KiB per file),
    // so a fast producer backpressures into later polls instead of an
    // unbounded send buffer.
    r.stream = [job, id](const HttpResponse::StreamSend& send,
                         const std::function<bool()>& cancelled) {
        constexpr std::size_t kMaxChunk = 64 * 1024;
        constexpr auto kPoll = std::chrono::milliseconds(100);
        static const char* kStates[] = {"running", "finished", "failed", "paused"};

        util::JsonObject hello;
        hello.emplace("dir", util::JsonValue(job->dir));
        hello.emplace("id", util::JsonValue(id));
        hello.emplace("state", util::JsonValue(
            kStates[job->state.load(std::memory_order_acquire)]));
        if (!send(sse_event("status", util::JsonValue(std::move(hello)).dump()))) {
            return;
        }

        const std::string journal = job->dir + "/events.jsonl";
        const std::string timeline = job->dir + "/timeline.jsonl";
        std::uint64_t journal_off = 0;
        std::uint64_t timeline_off = 0;
        for (;;) {
            const int state = job->state.load(std::memory_order_acquire);
            bool progressed = false;
            for (const std::string& line :
                 tail_lines(journal, &journal_off, kMaxChunk)) {
                if (!send(sse_event("campaign", line))) return;
                progressed = true;
            }
            for (const std::string& line :
                 tail_lines(timeline, &timeline_off, kMaxChunk)) {
                if (!send(sse_event("timeline", line))) return;
                progressed = true;
            }
            if (state != 0 && !progressed) break;  // terminal AND drained
            if (cancelled()) return;  // daemon draining: close mid-stream
            if (!progressed) std::this_thread::sleep_for(kPoll);
        }

        util::JsonObject done;
        done.emplace("id", util::JsonValue(id));
        done.emplace("state", util::JsonValue(
            kStates[job->state.load(std::memory_order_acquire)]));
        (void)send(sse_event("done", util::JsonValue(std::move(done)).dump()));
    };
    return r;
}

}  // namespace epea::serve
