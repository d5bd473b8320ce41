// Serve subsystem tests (src/serve/), fast tier: the pure request-head
// parser, the HTTP server's protocol edge cases (404/400/405/413/431,
// keep-alive), and the core acceptance property that /v1/analytic/predict
// and /v1/place/optimize bodies are byte-identical to the corresponding
// `epea_tool ... --json` CLI outputs (the CLI binary is invoked for real
// via popen — same reporters, same bytes).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/http.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"

namespace {

using namespace epea;

// ------------------------------------------------------- head parsing

TEST(ServeParse, AcceptsWellFormedHead) {
    serve::HttpRequest req;
    ASSERT_TRUE(serve::parse_request_head(
        "POST /v1/lint HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json",
        req));
    EXPECT_EQ(req.method, "POST");
    EXPECT_EQ(req.target, "/v1/lint");
    EXPECT_EQ(req.version, "HTTP/1.1");
    // Header names are lower-cased at parse time (case-insensitive per RFC).
    ASSERT_NE(req.header("content-type"), nullptr);
    EXPECT_EQ(*req.header("content-type"), "application/json");
    ASSERT_NE(req.header("Host"), nullptr);
    EXPECT_EQ(req.header("absent"), nullptr);
}

TEST(ServeParse, RejectsMalformedRequestLine) {
    serve::HttpRequest req;
    EXPECT_FALSE(serve::parse_request_head("", req));
    EXPECT_FALSE(serve::parse_request_head("GET /healthz", req));
    EXPECT_FALSE(serve::parse_request_head("GET  HTTP/1.1", req));
    EXPECT_FALSE(serve::parse_request_head("/healthz HTTP/1.1", req));
}

TEST(ServeParse, RejectsMalformedHeaderLine) {
    serve::HttpRequest req;
    EXPECT_FALSE(
        serve::parse_request_head("GET / HTTP/1.1\r\nno-colon-here", req));
}

TEST(ServeParse, KeepAliveSemantics) {
    serve::HttpRequest req;
    ASSERT_TRUE(serve::parse_request_head("GET / HTTP/1.1", req));
    EXPECT_TRUE(req.keep_alive());  // 1.1 default

    serve::HttpRequest closed;
    ASSERT_TRUE(serve::parse_request_head(
        "GET / HTTP/1.1\r\nConnection: Close", closed));
    EXPECT_FALSE(closed.keep_alive());

    serve::HttpRequest old;
    ASSERT_TRUE(serve::parse_request_head("GET / HTTP/1.0", old));
    EXPECT_FALSE(old.keep_alive());

    serve::HttpRequest old_ka;
    ASSERT_TRUE(serve::parse_request_head(
        "GET / HTTP/1.0\r\nConnection: keep-alive", old_ka));
    EXPECT_TRUE(old_ka.keep_alive());
}

// ------------------------------------------------------------ fixture

/// Runs `epea_tool <args>` (path injected by CMake) and returns stdout.
std::string run_cli(const std::string& args) {
    const std::string cmd = std::string(EPEA_TOOL) + " " + args + " 2>/dev/null";
    FILE* pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) return "";
    std::string out;
    char buf[4096];
    std::size_t n = 0;
    while ((n = fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
    const int rc = pclose(pipe);
    EXPECT_EQ(rc, 0) << "CLI failed: " << cmd;
    return out;
}

class ServeTest : public ::testing::Test {
protected:
    void SetUp() override {
        serve::ServiceOptions options;
        options.tool_version = "0.2.0-test";
        service_ = std::make_unique<serve::Service>(std::move(options));
        serve::ServerOptions server;
        server.port = 0;  // ephemeral
        server.threads = 2;
        server_ = std::make_unique<serve::HttpServer>(
            server,
            [this](const serve::HttpRequest& req) { return service_->handle(req); });
        server_->start();
        client_ = std::make_unique<serve::HttpClient>(server_->port());
    }

    void TearDown() override {
        client_.reset();
        server_->shutdown();
    }

    /// findings[0].rule of a finding-style error body.
    static std::string error_rule(const std::string& body) {
        const util::JsonValue v = util::JsonValue::parse(body);
        return v.at("findings").as_array().at(0).at("rule").as_string();
    }

    std::unique_ptr<serve::Service> service_;
    std::unique_ptr<serve::HttpServer> server_;
    std::unique_ptr<serve::HttpClient> client_;
};

// ---------------------------------------------------------- endpoints

TEST_F(ServeTest, HealthzOk) {
    const serve::ClientResponse r = client_->get("/healthz");
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.body, "ok\n");
}

TEST_F(ServeTest, VersionReportsBuildDiagnostics) {
    const serve::ClientResponse r = client_->get("/version");
    ASSERT_EQ(r.status, 200);
    const util::JsonValue v = util::JsonValue::parse(r.body);
    EXPECT_EQ(v.at("version").as_string(), "0.2.0-test");
    EXPECT_FALSE(v.at("build_type").as_string().empty());
    EXPECT_EQ(v.at("obs_enabled").as_bool(), obs::kEnabled);
}

TEST_F(ServeTest, MetricsExposesServeFamilies) {
    // Touch an endpoint first so its counter exists in the registry.
    ASSERT_EQ(client_->get("/healthz").status, 200);
    const serve::ClientResponse r = client_->get("/metrics");
    ASSERT_EQ(r.status, 200);
    EXPECT_NE(r.headers.at("content-type").find("text/plain"), std::string::npos);
    if (obs::kEnabled) {
        EXPECT_NE(r.body.find("serve_requests_healthz"), std::string::npos);
        EXPECT_NE(r.body.find("serve_latency_healthz"), std::string::npos);
    }
}

TEST_F(ServeTest, PredictPairByteIdenticalToCli) {
    const std::string cli =
        run_cli("analytic predict --source i --sink TOC2 --json");
    ASSERT_FALSE(cli.empty());
    const serve::ClientResponse r =
        client_->post("/v1/analytic/predict", R"({"sink":"TOC2","source":"i"})");
    ASSERT_EQ(r.status, 200);
    EXPECT_EQ(r.body, cli);
}

TEST_F(ServeTest, PredictProfileByteIdenticalToCli) {
    const std::string cli = run_cli("analytic predict --json");
    ASSERT_FALSE(cli.empty());
    const serve::ClientResponse r = client_->post("/v1/analytic/predict", "{}");
    ASSERT_EQ(r.status, 200);
    EXPECT_EQ(r.body, cli);
}

TEST_F(ServeTest, OptimizeDefaultBenefitByteIdenticalToCli) {
    const std::string cli = run_cli("place optimize --error-model input --json");
    ASSERT_FALSE(cli.empty());
    const serve::ClientResponse r =
        client_->post("/v1/place/optimize", R"({"error_model":"input"})");
    ASSERT_EQ(r.status, 200);
    EXPECT_EQ(r.body, cli);
}

TEST_F(ServeTest, OptimizeAnalyticByteIdenticalToCli) {
    const std::string cli =
        run_cli("place optimize --error-model input --benefit analytic --json");
    ASSERT_FALSE(cli.empty());
    const serve::ClientResponse r = client_->post(
        "/v1/place/optimize", R"({"benefit":"analytic","error_model":"input"})");
    ASSERT_EQ(r.status, 200);
    EXPECT_EQ(r.body, cli);
}

TEST_F(ServeTest, PredictMemoHitsOnRepeat) {
    ASSERT_EQ(
        client_->post("/v1/analytic/predict", R"({"source":"i"})").status, 200);
    const serve::MemoStats cold = service_->memo_stats();
    EXPECT_GE(cold.misses, 1U);
    ASSERT_EQ(
        client_->post("/v1/analytic/predict", R"({"source":"i"})").status, 200);
    const serve::MemoStats warm = service_->memo_stats();
    EXPECT_EQ(warm.misses, cold.misses);  // second ask: pure hit
    EXPECT_GE(warm.hits, cold.hits + 1);
}

TEST_F(ServeTest, LintReportsFindings) {
    const serve::ClientResponse r = client_->post(
        "/v1/lint", R"({"kind":"model","text":"signal a\nsignal a\n"})");
    ASSERT_EQ(r.status, 200);
    const util::JsonValue v = util::JsonValue::parse(r.body);
    EXPECT_TRUE(v.find("errors") != nullptr);
    EXPECT_TRUE(v.find("findings") != nullptr);
    EXPECT_TRUE(v.find("warnings") != nullptr);
}

// --------------------------------------------------------- error paths

TEST_F(ServeTest, UnknownEndpointIs404WithFindingBody) {
    const serve::ClientResponse r = client_->get("/nope");
    EXPECT_EQ(r.status, 404);
    EXPECT_EQ(error_rule(r.body), "SERVE-E404");
}

TEST_F(ServeTest, MalformedJsonIs400WithFindingBody) {
    const serve::ClientResponse r =
        client_->post("/v1/analytic/predict", "this is not json");
    EXPECT_EQ(r.status, 400);
    EXPECT_EQ(error_rule(r.body), "SERVE-E400");
}

TEST_F(ServeTest, UnknownSignalIs400) {
    const serve::ClientResponse r =
        client_->post("/v1/analytic/predict", R"({"source":"no_such_signal"})");
    EXPECT_EQ(r.status, 400);
    EXPECT_EQ(error_rule(r.body), "SERVE-E400");
}

TEST_F(ServeTest, WrongMethodIs405) {
    const serve::ClientResponse r = client_->get("/v1/analytic/predict");
    EXPECT_EQ(r.status, 405);
    EXPECT_EQ(error_rule(r.body), "SERVE-E405");
}

TEST_F(ServeTest, GroundTruthWithoutEvalDirIs503) {
    const serve::ClientResponse r =
        client_->post("/v1/place/optimize", R"({"benefit":"ground-truth"})");
    EXPECT_EQ(r.status, 503);
    EXPECT_EQ(error_rule(r.body), "SERVE-E503");
}

TEST_F(ServeTest, OptimizeRejectsNonPositiveSizing) {
    // Negative/zero sizing must 400, never wrap around to a huge size_t;
    // so must wrongly typed fields and unknown benefit modes.
    for (const auto& [path, body] :
         std::vector<std::pair<const char*, const char*>>{
             {"/v1/place/optimize", R"({"cases":0})"},
             {"/v1/place/optimize", R"({"cases":-1})"},
             {"/v1/place/optimize", R"({"times":-3})"},
             {"/v1/place/optimize", R"({"times":1000000000})"},
             {"/v1/place/optimize", R"({"cases":"lots"})"},
             {"/v1/place/optimize", R"({"benefit":5})"},
             {"/v1/place/optimize", R"({"benefit":"visibility"})"},
             {"/v1/place/optimize", R"({"budget_memory":"lots"})"},
             {"/v1/place/optimize", R"({"error_model":7})"},
             {"/v1/place/optimize", R"({"error_model":"bogus"})"},
             {"/v1/analytic/predict", R"({"sink":3})"}}) {
        const serve::ClientResponse r = client_->post(path, body);
        EXPECT_EQ(r.status, 400) << path << ' ' << body;
        EXPECT_EQ(error_rule(r.body), "SERVE-E400") << path << ' ' << body;
    }
}

TEST_F(ServeTest, CampaignSubmitRejectsEscapingDirs) {
    // The dir is confined to --eval-dir: absolute paths and dot segments
    // are rejected up front (before the eval-dir 503, so a daemon
    // without --eval-dir still answers traversal attempts with 400).
    for (const char* body :
         {R"({"dir":"/tmp/escape"})", R"({"dir":"../escape"})",
          R"({"dir":"a/../../b"})", R"({"dir":"./x"})", R"({"dir":"a//b"})",
          R"({"dir":"a/"})"}) {
        const serve::ClientResponse r =
            client_->post("/v1/campaign/submit", body);
        EXPECT_EQ(r.status, 400) << body;
        EXPECT_EQ(error_rule(r.body), "SERVE-E400") << body;
    }
    // A well-formed relative dir on this fixture (no --eval-dir): 503.
    const serve::ClientResponse ok =
        client_->post("/v1/campaign/submit", R"({"dir":"job1"})");
    EXPECT_EQ(ok.status, 503);
}

TEST_F(ServeTest, KeepAliveReusesOneConnection) {
    ASSERT_EQ(client_->get("/healthz").status, 200);
    ASSERT_EQ(client_->get("/version").status, 200);
    ASSERT_EQ(client_->get("/healthz").status, 200);
    EXPECT_EQ(server_->connections_accepted(), 1U);
    EXPECT_GE(server_->requests_handled(), 3U);
}

// Thread-count validation needs an --eval-dir daemon; the invalid
// values must 400 before any job thread is spawned, so handle() can be
// driven directly without a socket.
TEST(ServeCampaignValidation, SubmitRejectsBadThreadCounts) {
    namespace fs = std::filesystem;
    const fs::path tmp = fs::temp_directory_path() / "epea_serve_threads";
    fs::remove_all(tmp);
    fs::create_directories(tmp);

    serve::ServiceOptions options;
    options.eval_dir = tmp.string();
    serve::Service service(std::move(options));
    for (const char* body :
         {R"({"dir":"job1","threads":0})", R"({"dir":"job1","threads":-4})",
          R"({"dir":"job1","threads":1000000})"}) {
        serve::HttpRequest req;
        req.method = "POST";
        req.target = "/v1/campaign/submit";
        req.version = "HTTP/1.1";
        req.body = body;
        EXPECT_EQ(service.handle(req).status, 400) << body;
    }
    // Nothing was submitted, so nothing was created under eval-dir.
    EXPECT_TRUE(fs::is_empty(tmp));
    fs::remove_all(tmp);
}

// Size limits get a dedicated tiny-limit server so the test does not
// need megabyte payloads.
TEST(ServeLimits, OversizedBodyIs413AndHeadIs431) {
    serve::ServiceOptions service_options;
    serve::Service service(std::move(service_options));
    serve::ServerOptions options;
    options.port = 0;
    options.threads = 1;
    options.max_header_bytes = 512;
    options.max_body_bytes = 1024;
    serve::HttpServer server(
        options,
        [&service](const serve::HttpRequest& req) { return service.handle(req); });
    server.start();

    serve::HttpClient client(server.port());
    const serve::ClientResponse big_body = client.post(
        "/v1/lint", std::string(2048, 'x'));
    EXPECT_EQ(big_body.status, 413);

    client.disconnect();
    const serve::ClientResponse big_head =
        client.get("/" + std::string(1024, 'a'));
    EXPECT_EQ(big_head.status, 431);

    server.shutdown();
}

}  // namespace
