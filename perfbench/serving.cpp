/**
 * @file
 * The serving workloads (`interactive`, `analysis`, `bounded`): the
 * preparation child builds the artifact, draws the seeded query lists
 * and records reference answers; the measuring process serves the
 * artifact with serve::Server over loopback TCP and replays the lists
 * in closed loops, one client thread per connection.
 */
#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <thread>

#include "analysis/racedetect.h"
#include "construct.h"
#include "core/addrquery.h"
#include "core/cfquery.h"
#include "core/sharedartifact.h"
#include "core/slicer.h"
#include "core/valuequery.h"
#include "serve/client.h"
#include "serve/queryrunner.h"
#include "serve/server.h"
#include "support/governor.h"

namespace perf {

using namespace wet;

namespace {

/** Set-up repetitions per run; the median is reported. */
constexpr int kSetups = 5;
/** mt.counter's scale in `analysis` and `bounded` (0.89 M
 *  statements). Its longest lines then take tens to hundreds of
 *  milliseconds, so a run repeats each line often enough for its cost
 *  (perf::cost) to find the host's quiet moments. */
constexpr uint64_t kCounterScale = 1500;
/** Cursor slices per `analysis`/`bounded` list, and the items each
 *  returns. */
constexpr size_t kSlices = 4;
constexpr size_t kSliceItems = 10;
/** Bounded decode-step budget, as a multiple of the largest step
 *  count any line of the list needs on an unbounded session. The
 *  product is rounded up to a power of two, so that the race scan's
 *  trip point (its latency and graveyard) does not move with the
 *  seed's slices. */
constexpr uint64_t kBudgetMultiple = 2;
/** ... and never below 2^21 steps: the largest line is the race scan
 *  at 0.65 M steps, so every seed's list gets the same 2.1 M budget
 *  unless a line needs more than 1.05 M. */
constexpr uint64_t kBudgetFloor = uint64_t{1} << 21;
/** Reference outputs up to this size are kept whole, so that a
 *  governor-truncated answer can be checked as a prefix. */
constexpr size_t kKeepWhole = 64u << 10;
const std::string kTruncMarker = "(truncated by governor: ";

/** Workload shape: served program and scale, connections, cache
 *  bound, and whether a decode-step budget applies. */
struct Shape
{
    const char* program;
    uint64_t scale;
    unsigned conns;
    size_t cache;
    bool budget;
};

Shape
shapeOf(const std::string& workload)
{
    if (workload == "interactive")
        return {"197.parser", 1000, 1, 0, false};
    if (workload == "analysis")
        return {"mt.counter", kCounterScale, 1, 0, false};
    if (workload == "bounded")
        return {"mt.counter", kCounterScale, 1, 8, true};
    throw WetError("unknown serving workload '" + workload + "'");
}

int
verbIndex(const std::string& verb)
{
    const auto& v = verbs();
    return static_cast<int>(std::find(v.begin(), v.end(), verb) -
                            v.begin());
}

/** One distinct line of a list with its reference answer. */
struct Line
{
    std::string text;
    int verb = 0;
    int code = 0;
    uint64_t hash = 0;
    uint64_t len = 0;
    uint64_t steps = 0;
    std::string whole; //!< reference stdout when len <= kKeepWhole
};

/** Everything the preparation child hands to the measuring run. */
struct Prepared
{
    std::string program;
    uint64_t stmts = 0;
    uint64_t bytes = 0;
    uint64_t maxSteps = 0;
    std::vector<Line> lines;
    std::vector<std::vector<size_t>> conns; //!< line indexes per conn
};

std::string
refPath(const Options& opt)
{
    return opt.work + "/" + opt.workload + "-" +
           std::to_string(opt.seed) + ".ref";
}

std::string
artifactPath(const Options& opt, const std::string& program)
{
    return opt.work + "/" + program + ".wetx";
}

void
writePrepared(const std::string& path, const Prepared& p)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << p.program << ' ' << p.stmts << ' ' << p.bytes << ' '
      << p.maxSteps << ' ' << p.lines.size() << ' ' << p.conns.size()
      << '\n';
    for (const auto& c : p.conns) {
        f << c.size();
        for (size_t i : c)
            f << ' ' << i;
        f << '\n';
    }
    for (const Line& l : p.lines)
        f << l.verb << ' ' << l.code << ' ' << l.hash << ' ' << l.len
          << ' ' << l.steps << ' ' << l.whole.size() << ' ' << l.text
          << '\n'
          << l.whole;
}

Prepared
readPrepared(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        throw WetError("no prepared list at " + path);
    Prepared p;
    size_t nLines = 0;
    size_t nConns = 0;
    f >> p.program >> p.stmts >> p.bytes >> p.maxSteps >> nLines >>
        nConns;
    p.conns.resize(nConns);
    for (auto& c : p.conns) {
        size_t n = 0;
        f >> n;
        c.resize(n);
        for (size_t& i : c)
            f >> i;
    }
    p.lines.resize(nLines);
    for (Line& l : p.lines) {
        size_t whole = 0;
        f >> l.verb >> l.code >> l.hash >> l.len >> l.steps >> whole;
        f.get();
        std::getline(f, l.text);
        l.whole.resize(whole);
        f.read(l.whole.data(), static_cast<std::streamsize>(whole));
    }
    if (!f)
        throw WetError("truncated prepared list at " + path);
    return p;
}

/** Executions of one statement, over all of its sites. */
struct StmtCount
{
    ir::StmtId stmt;
    uint64_t inst;
};

std::vector<StmtCount>
stmtCounts(const core::WetGraph& g, const ir::Module& mod,
           bool (*want)(ir::Opcode))
{
    std::vector<StmtCount> v;
    for (const auto& [stmt, sites] : g.stmtIndex) {
        if (!want(mod.instr(stmt).op))
            continue;
        uint64_t n = 0;
        for (const auto& site : sites)
            n += g.nodes[site.first].numInstances;
        if (n > 0)
            v.push_back({stmt, n});
    }
    std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
        return a.stmt < b.stmt;
    });
    return v;
}

bool
isValueStmt(ir::Opcode op)
{
    return ir::hasDef(op) && op != ir::Opcode::Const;
}

bool
isMemStmt(ir::Opcode op)
{
    return op == ir::Opcode::Load || op == ir::Opcode::Store;
}

bool
anyStmt(ir::Opcode)
{
    return true;
}

/**
 * The statements of one cost band: instance counts in [lo, lo*4).
 * Interactive lists draw from a fixed band near @p lo; analysis lists
 * take the band that ends at the hottest statement.
 */
std::vector<StmtCount>
band(std::vector<StmtCount> all, uint64_t lo, uint64_t factor)
{
    std::vector<StmtCount> v;
    for (const StmtCount& s : all)
        if (s.inst >= lo && s.inst < lo * factor)
            v.push_back(s);
    return v;
}

uint64_t
hottest(const std::vector<StmtCount>& v)
{
    uint64_t m = 0;
    for (const StmtCount& s : v)
        m = std::max(m, s.inst);
    return m;
}

/** @p n statements that cycle through all of @p band in a seeded
 *  order, so every seed draws the band's statements equally often. */
std::vector<StmtCount>
cycle(std::vector<StmtCount> band, size_t n, std::mt19937_64& rng)
{
    if (band.empty())
        throw WetError("empty statement band");
    std::shuffle(band.begin(), band.end(), rng);
    std::vector<StmtCount> v;
    for (size_t i = 0; i < n; ++i)
        v.push_back(band[i % band.size()]);
    return v;
}

/**
 * Seeded per-connection lists (line texts) for @p workload. Each verb
 * draws from one cost band, and draws are spread over it (statements
 * cycled, cf starts stratified) so a verb's cost does not jump with
 * the seed; the seed sets the draws within strata and the order.
 */
std::vector<std::vector<std::string>>
makeLists(const std::string& workload, uint64_t seed, unsigned conns,
          const core::WetGraph& g, const ir::Module& mod)
{
    const auto values = stmtCounts(g, mod, isValueStmt);
    const auto mems = stmtCounts(g, mod, isMemStmt);
    std::vector<std::vector<std::string>> lists(conns);
    for (unsigned c = 0; c < conns; ++c) {
        std::mt19937_64 rng(seed * 1000003u + c);
        std::vector<std::string>& l = lists[c];
        if (workload == "interactive") {
            // Short queries: 64-row cf windows anywhere after t=1, and
            // values/addr --limit 20 on statements executed 1024 to
            // 4095 times.
            constexpr uint64_t kWindows = 24;
            const uint64_t stratum = (g.lastTimestamp - 66) / kWindows;
            for (uint64_t i = 0; i < kWindows; ++i)
                l.push_back("cf --from " +
                            std::to_string(2 + i * stratum +
                                           rng() % stratum) +
                            " --count 64");
            for (const StmtCount& s : cycle(band(values, 1024, 4), 30, rng))
                l.push_back("values --stmt " + std::to_string(s.stmt) +
                            " --limit 20");
            for (const StmtCount& s : cycle(band(mems, 1024, 4), 30, rng))
                l.push_back("addr --stmt " + std::to_string(s.stmt) +
                            " --limit 20");
        } else {
            // Long queries: the race scan, cursor slices seeded in the
            // second half of the histories of kSlices hot statements
            // spread evenly over the band, and the full value/address
            // history of every hot statement (the band from half the
            // hottest count up). Slices cost the most, so the seed
            // moves only their instances, not their statements.
            const auto all = stmtCounts(g, mod, anyStmt);
            const auto hot = band(all, hottest(all) / 2, 4);
            l.push_back("races");
            for (size_t j = 0; j < kSlices; ++j) {
                const StmtCount& s = hot[j * hot.size() / kSlices];
                l.push_back("slice --stmt " + std::to_string(s.stmt) +
                            " --k " +
                            std::to_string(s.inst / 2 +
                                           rng() % (s.inst - s.inst / 2)) +
                            " --max " + std::to_string(kSliceItems));
            }
            for (const StmtCount& s : band(values, hottest(values) / 2, 4))
                l.push_back("values --stmt " + std::to_string(s.stmt) +
                            " --limit 1000000000");
            for (const StmtCount& s : band(mems, hottest(mems) / 2, 4))
                l.push_back("addr --stmt " + std::to_string(s.stmt) +
                            " --limit 1000000000");
        }
        std::shuffle(l.begin(), l.end(), rng);
    }
    return lists;
}

std::string
binaryIdentity()
{
    std::ifstream f("/proc/self/exe", std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
    return std::to_string(fnv(bytes)) + "-" +
           std::to_string(bytes.size());
}

/** Outcome of checking one served answer against its reference. */
enum class Verdict { Ok, Truncated, Failed };

Verdict
check(const Line& l, int code, const std::string& out,
      const std::string& err)
{
    if (err.find("error: line:") != std::string::npos)
        return Verdict::Failed;
    if (code == 1 || code == 2 || code == 3 || code == 5)
        return Verdict::Failed;
    if (code == l.code && out.size() == l.len && fnv(out) == l.hash)
        return Verdict::Ok;
    // A governor trip keeps the partial output and appends one
    // marker line; the part before it must be a prefix of the answer.
    const size_t m = out.rfind(kTruncMarker);
    if (code == 0 && m != std::string::npos &&
        out.find('\n', m) == out.size() - 1 &&
        (m == 0 || (l.len <= kKeepWhole &&
                    l.whole.compare(0, m, out, 0, m) == 0)))
        return Verdict::Truncated;
    return Verdict::Failed;
}

/** Per-answer record of a timed phase. */
struct Sample
{
    size_t line;
    int verb;
    double us;
    Verdict verdict;
};

/** The served stack of one set-up: program, artifact, server. */
struct Stack
{
    std::unique_ptr<Program> prog;
    wetio::LoadedWet art;
    std::shared_ptr<core::SharedArtifact> shared;
    std::unique_ptr<serve::Server> server;

    ~Stack()
    {
        if (server)
            server->stop();
    }
};

core::SessionOptions
sessionOptions(const Shape& shape, const Prepared& p)
{
    core::SessionOptions so;
    so.cacheCapacity = shape.cache;
    so.threads = 1;
    if (shape.budget)
        so.limits.maxDecodeSteps = std::bit_ceil(
            std::max(kBudgetMultiple * p.maxSteps, kBudgetFloor));
    return so;
}

/** Result counters shared by the client threads of one phase. */
struct Tally
{
    std::mutex mu;
    std::vector<Sample> samples; //!< guarded by mu
    uint64_t attempted = 0;      //!< guarded by mu
    uint64_t failed = 0;         //!< guarded by mu
    std::vector<std::string> firstFailures; //!< guarded by mu

    void
    add(size_t line, const Line& l, double us, Verdict v,
        const std::string& why)
    {
        std::lock_guard<std::mutex> lock(mu);
        samples.push_back({line, l.verb, us, v});
        ++attempted;
        failed += v == Verdict::Failed;
        if (v == Verdict::Failed && firstFailures.size() < 5)
            firstFailures.push_back(l.text + ": " + why);
    }
};

/** Send line @p i of @p p, time the round trip and check the answer. */
void
roundTrip(serve::Client& cl, const Prepared& p, size_t i, Tally& tally)
{
    const Line& l = p.lines[i];
    const double t0 = nowUs();
    serve::Client::Response r = cl.query(l.text);
    const double us = nowUs() - t0;
    Verdict v = check(l, r.code, r.out, r.err);
    tally.add(i, l, us, v,
              "code " + std::to_string(r.code) + ", " +
                  std::to_string(r.out.size()) + " bytes, err " +
                  r.err.substr(0, 120));
}

/** Run @p body(c) on one thread per connection and join them all. */
template <typename F>
void
perConnection(unsigned conns, F&& body)
{
    std::vector<std::thread> threads;
    std::exception_ptr failure;
    std::mutex mu;
    for (unsigned c = 0; c < conns; ++c)
        threads.emplace_back([&, c] {
            try {
                body(c);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mu);
                failure = std::current_exception();
            }
        });
    for (std::thread& t : threads)
        t.join();
    if (failure)
        std::rethrow_exception(failure);
}

/** The engine call of @p q with its output discarded. */
void
runEngine(core::QuerySession& s, const serve::QuerySpec& q, Tracer& t)
{
    const std::string& verb = q.verb;
    if (verb == "cf") {
        const uint64_t last = s.graph().lastTimestamp;
        const uint64_t count = std::min<uint64_t>(q.count, last - q.from + 1);
        core::ControlFlowQuery(s.access())
            .extractRange(q.from, count, [](core::NodeId, core::Timestamp) {
                support::Governor::poll();
            });
    } else if (verb == "values") {
        core::ValueTraceQuery(s.access())
            .extract(static_cast<ir::StmtId>(q.stmt),
                     [](core::Timestamp, int64_t) {
                         support::Governor::poll();
                     });
    } else if (verb == "addr") {
        core::AddressTraceQuery(s.access())
            .extract(static_cast<ir::StmtId>(q.stmt),
                     [](core::Timestamp, uint64_t) {
                         support::Governor::poll();
                     });
    } else if (verb == "slice") {
        const auto stmt = static_cast<ir::StmtId>(q.stmt);
        core::WetSlicer slicer(s.cursorSlice());
        core::SliceResult res =
            slicer.backward(slicer.locate(stmt, q.k), q.maxItems);
        s.depGraph().backwardSlice(stmt);
        t.count("slice.items", static_cast<double>(res.items.size()));
        // Streams this slice reads: what a fresh session would open.
        t.count("slice.streams_opened",
                static_cast<double>(s.cache().touchedCount()));
    } else if (verb == "races") {
        analysis::CursorSyncAccess sa(s.compressed(), &s.cache(), 0);
        analysis::detectRaces(sa);
    }
}

/**
 * Values decoded by one line. The engines' I/O stats cover only the
 * readers still cached, so under a cache bound they miss what evicted
 * readers decoded; a governed session's step count covers all of it.
 */
double
valuesDecoded(core::QuerySession& s, uint64_t statsBefore,
              uint64_t statsAfter)
{
    return static_cast<double>(
        std::max(statsAfter - std::min(statsBefore, statsAfter),
                 s.governor().steps()));
}

/**
 * One line's engine call on a shadow session, inside the scope the
 * served line would open, so that the governor and the cache bound
 * apply and a trip quarantines the same readers. The "engine" span
 * covers the call alone. Records the per-verb cache, slice and race
 * counts when @p record is set; warm-up lines only drive the session.
 */
void
engineCall(core::QuerySession& s, const std::string& text,
           int64_t parent, uint64_t query, bool record)
{
    serve::QuerySpec q = serve::parseQueryLine(serve::tokenize(text));
    const std::string& verb = q.verb;
    const core::StreamCache::Stats before = s.cache().stats();
    const core::SliceIoStats sliceBefore = s.cursorSlice().stats();
    const uint64_t syncBefore =
        analysis::CursorSyncAccess(s.compressed(), &s.cache(), 0)
            .stats()
            .valuesDecoded;
    Tracer off; // never enabled: swallows the warm-up's spans and counts
    Tracer& t = record ? tracer() : off;
    try {
        core::QuerySession::Scope scope(s, verb);
        std::exception_ptr trip;
        const double e0 = nowUs();
        try {
            runEngine(s, q, t);
        } catch (const GovernorLimit&) {
            trip = std::current_exception();
        }
        t.add("engine", e0, nowUs(), parent, query);
        if (trip)
            std::rethrow_exception(trip);
    } catch (const GovernorLimit&) {
        t.count("governor.trips." + verb, 1);
    }
    const core::StreamCache::Stats& now = s.cache().stats();
    t.count("lines." + verb, 1);
    t.count("cache.lookups." + verb,
            static_cast<double>((now.hits - before.hits) +
                                (now.misses - before.misses)));
    t.count("cache.hits." + verb,
            static_cast<double>(now.hits - before.hits));
    t.count("cache.evictions." + verb,
            static_cast<double>(now.evictions - before.evictions));
    t.count("cache.rescans." + verb,
            static_cast<double>(now.rescans - before.rescans));
    if (verb == "slice") {
        const core::SliceIoStats after = s.cursorSlice().stats();
        t.count("slice.values_decoded",
                valuesDecoded(s, sliceBefore.valuesDecoded,
                              after.valuesDecoded));
        t.count("slice.cursor_restarts",
                static_cast<double>(after.cursorRestarts) -
                    static_cast<double>(sliceBefore.cursorRestarts));
    } else if (verb == "races") {
        t.count("races.values_decoded",
                valuesDecoded(
                    s, syncBefore,
                    analysis::CursorSyncAccess(s.compressed(), &s.cache(), 0)
                        .stats()
                        .valuesDecoded));
    }
}

/** Engine layer of each verb, as named in the per-layer metrics. */
const char*
engineMetric(const std::string& verb)
{
    if (verb == "cf")
        return "core.cfquery.us";
    if (verb == "values")
        return "core.valuequery.us";
    if (verb == "addr")
        return "core.addrquery.us";
    if (verb == "slice")
        return "core.cursorslicer.us";
    return "analysis.racedetect.us";
}

/**
 * Per-layer serving metrics from the traced phase's spans and counts
 * (median self time per verb), and the accounting check: per verb,
 * the median over lines of the summed self times of wire, render,
 * parse, scope and engine must lie within 15% of the untraced median
 * round trip.
 */
void
tracedMetrics(Report& r, const std::vector<int>& verbOf,
              const std::vector<double>& untracedP50)
{
    const std::vector<Tracer::Span> spans = tracer().spans();
    const std::vector<double> self = tracer().selfTimes();
    const size_t nv = verbs().size();
    enum { kWire, kRender, kParse, kScope, kEngine, kLayers };
    const char* names[kLayers] = {"serve.rtt", "serve.line", "serve.parse",
                                  "core.session.scope", "engine"};
    std::vector<std::vector<std::vector<double>>> layer(
        nv, std::vector<std::vector<double>>(kLayers));
    std::vector<double> scopes;
    std::vector<double> lineSum(verbOf.size(), 0);
    for (size_t i = 0; i < spans.size(); ++i) {
        const Tracer::Span& s = spans[i];
        if (s.query == 0 || s.query >= verbOf.size())
            continue;
        for (int k = 0; k < kLayers; ++k) {
            if (s.name != names[k])
                continue;
            layer[static_cast<size_t>(verbOf[s.query])][k].push_back(
                self[i]);
            lineSum[s.query] += self[i];
        }
        if (s.name == "core.session.scope")
            scopes.push_back(self[i]);
    }
    std::vector<std::vector<double>> sums(nv);
    for (size_t q = 1; q < verbOf.size(); ++q)
        sums[static_cast<size_t>(verbOf[q])].push_back(lineSum[q]);
    const Tracer& t = tracer();
    auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    double worst = 0;
    double trips = 0;
    double lines = 0;
    for (size_t v = 0; v < nv; ++v) {
        const std::string& verb = verbs()[v];
        const double n = t.counted("lines." + verb);
        const auto& L = layer[v];
        const uint64_t samples = L[kWire].size();
        r.add("serve.parse_us." + verb, median(L[kParse]), "us", samples);
        r.add("serve.render_us." + verb, median(L[kRender]), "us", samples);
        r.add("serve.wire_us." + verb, median(L[kWire]), "us", samples);
        r.add(engineMetric(verb), median(L[kEngine]), "us", samples);
        const double lookups = t.counted("cache.lookups." + verb);
        r.add("cache.lookups." + verb, per(lookups, n), "count", samples);
        r.add("cache.hit_ratio." + verb,
              per(t.counted("cache.hits." + verb), lookups), "ratio",
              samples);
        r.add("cache.evictions." + verb,
              per(t.counted("cache.evictions." + verb), n), "count",
              samples);
        r.add("cache.rescans." + verb,
              per(t.counted("cache.rescans." + verb), n), "count", samples);
        trips += t.counted("governor.trips." + verb);
        lines += n;
        if (samples == 0 || untracedP50[v] <= 0)
            continue;
        const double sum = median(sums[v]);
        const double dev = 100.0 * (sum - untracedP50[v]) / untracedP50[v];
        worst = std::max(worst, std::abs(dev));
        std::printf("accounting %-6s: median layer sum %.1f us vs untraced "
                    "p50 %.1f us (%+.1f%%) %s; median self times: wire "
                    "%.1f render %.1f parse %.1f scope %.1f engine %.1f, "
                    "n=%zu\n",
                    verb.c_str(), sum, untracedP50[v], dev,
                    std::abs(dev) <= 15.0 ? "PASS" : "FAIL",
                    median(L[kWire]), median(L[kRender]), median(L[kParse]),
                    median(L[kScope]), median(L[kEngine]), sums[v].size());
    }
    const double slices = t.counted("lines.slice");
    r.add("slice.values_decoded",
          per(t.counted("slice.values_decoded"), slices), "count",
          static_cast<uint64_t>(slices));
    r.add("slice.streams_opened",
          per(t.counted("slice.streams_opened"), slices), "count",
          static_cast<uint64_t>(slices));
    r.add("slice.cursor_restarts",
          per(t.counted("slice.cursor_restarts"), slices), "count",
          static_cast<uint64_t>(slices));
    r.add("slice.decoded_per_item",
          per(t.counted("slice.values_decoded"), t.counted("slice.items")),
          "count", static_cast<uint64_t>(slices));
    r.add("races.values_decoded",
          per(t.counted("races.values_decoded"), t.counted("lines.races")),
          "count", static_cast<uint64_t>(t.counted("lines.races")));
    r.add("core.session.scope_us", median(scopes), "us", scopes.size());
    r.add("governor.trip_frac", per(trips, lines), "fraction",
          static_cast<uint64_t>(lines));
    r.add("accounting.worst_dev_pct", worst, "%", 1);
}

} // namespace

int
prepServing(const Options& opt)
{
    const Shape shape = shapeOf(opt.workload);
    const workloads::Workload& w = workloads::workloadByName(shape.program);
    if (opt.trace)
        tracer().enable();
    Program prog(w, shape.scale);

    // The artifact depends only on the program and this binary, so it
    // is built once per checkout; a traced run always rebuilds it to
    // time construction.
    const std::string path = artifactPath(opt, shape.program);
    const std::string stampPath = path + ".stamp";
    const std::string id = binaryIdentity();
    std::string stampId;
    uint64_t stmts = 0;
    {
        std::ifstream f(stampPath);
        f >> stampId >> stmts;
    }
    if (opt.trace || stampId != id || !std::filesystem::exists(path)) {
        Built b = construct(prog, path);
        stmts = b.stmts;
        std::ofstream(stampPath, std::ios::trunc) << id << ' ' << stmts
                                                  << '\n';
    }
    std::string problem;
    wetio::LoadedWet art = loadChecked(path, *prog.mod, problem);
    if (!problem.empty()) {
        std::fprintf(stderr, "prep: %s does not load: %s\n", path.c_str(),
                     problem.c_str());
        return 1;
    }
    auto shared = std::make_shared<core::SharedArtifact>(
        *prog.mod, *art.compressed, art.backing, 1, shape.program);

    Prepared p;
    p.program = shape.program;
    p.stmts = stmts;
    p.bytes = std::filesystem::file_size(path);
    const auto texts =
        makeLists(opt.workload, opt.seed, shape.conns, shared->graph(),
                  *prog.mod);

    // Reference answers: one serial session, unbounded cache. Its
    // step budget can never trip; it is set only so the governor
    // counts each line's decode steps.
    core::SessionOptions ro;
    ro.limits.maxDecodeSteps = UINT64_MAX;
    core::QuerySession ref(shared, ro);
    std::map<std::string, size_t> index;
    for (const auto& list : texts) {
        std::vector<size_t> conn;
        for (const std::string& text : list) {
            auto [it, fresh] = index.emplace(text, p.lines.size());
            if (fresh) {
                serve::LineResult r = serve::serveLine(
                    ref, shape.program, text, p.lines.size() + 1);
                if (r.err.find("error: line:") != std::string::npos ||
                    (r.code != 0 && r.code != 4 && r.code != 6)) {
                    std::fprintf(stderr, "prep: reference failed on '%s': "
                                         "%s\n",
                                 text.c_str(), r.err.c_str());
                    return 1;
                }
                Line l;
                l.text = text;
                l.verb = verbIndex(text.substr(0, text.find(' ')));
                l.code = r.code;
                l.hash = fnv(r.out);
                l.len = r.out.size();
                l.steps = ref.governor().steps();
                if (l.len <= kKeepWhole)
                    l.whole = r.out;
                p.maxSteps = std::max(p.maxSteps, l.steps);
                p.lines.push_back(std::move(l));
            }
            conn.push_back(it->second);
        }
        p.conns.push_back(std::move(conn));
    }
    writePrepared(refPath(opt), p);
    if (opt.trace)
        tracer().write(refPath(opt) + ".spans");
    std::printf("prep: %s, %llu statements, %llu bytes, %zu distinct "
                "lines, largest line %llu decode steps\n",
                shape.program, static_cast<unsigned long long>(p.stmts),
                static_cast<unsigned long long>(p.bytes), p.lines.size(),
                static_cast<unsigned long long>(p.maxSteps));
    return 0;
}

void
runServing(const Options& opt, Outcome& out)
{
    const Shape shape = shapeOf(opt.workload);
    const Prepared prep = readPrepared(refPath(opt));
    const workloads::Workload& w = workloads::workloadByName(shape.program);
    const std::string path = artifactPath(opt, shape.program);
    const core::SessionOptions so = sessionOptions(shape, prep);
    Tally tally;

    auto makeStack = [&] {
        auto st = std::make_unique<Stack>();
        st->prog = std::make_unique<Program>(w, shape.scale);
        std::string problem;
        st->art = loadChecked(path, *st->prog->mod, problem);
        if (!problem.empty())
            throw WetError("artifact does not load: " + problem);
        st->shared = std::make_shared<core::SharedArtifact>(
            *st->prog->mod, *st->art.compressed, st->art.backing, 1,
            shape.program);
        serve::ServerOptions sopt;
        sopt.workers = std::max(2u, shape.conns);
        sopt.session = so;
        st->server = std::make_unique<serve::Server>(st->shared, sopt);
        st->server->start();
        return st;
    };
    auto connect = [&](Stack& st) {
        std::vector<serve::Client> clients(shape.conns);
        for (serve::Client& cl : clients)
            cl.connectTcp(st.server->port());
        return clients;
    };
    auto warm = [&](std::vector<serve::Client>& clients) {
        perConnection(shape.conns, [&](unsigned c) {
            for (size_t i : prep.conns[c])
                roundTrip(clients[c], prep, i, tally);
        });
    };

    // Set-up, several times: compile + load, server start, connects,
    // one warm-up pass per connection. The last stack stays up.
    std::vector<double> setups;
    std::unique_ptr<Stack> stack;
    std::vector<serve::Client> clients;
    for (int r = 0; r < kSetups; ++r) {
        clients.clear();
        stack.reset();
        const double t0 = nowUs();
        stack = makeStack();
        clients = connect(*stack);
        warm(clients);
        setups.push_back((nowUs() - t0) / 1e6);
    }

    // Timed phase: closed loops, each connection cycling its list.
    const size_t warmSamples = tally.samples.size();
    resetPeakRss();
    const double deadline = nowUs() + opt.seconds * 1e6;
    std::vector<size_t> sent(shape.conns, 0);
    perConnection(shape.conns, [&](unsigned c) {
        const auto& list = prep.conns[c];
        size_t k = 0;
        for (; nowUs() < deadline; ++k)
            roundTrip(clients[c], prep, list[k % list.size()], tally);
        sent[c] = k;
    });
    const double peakMb = peakRssMb();
    for (unsigned c = 0; c < shape.conns; ++c)
        if (sent[c] < prep.conns[c].size())
            throw WetError("the timed phase completed no pass over a "
                           "list; raise --seconds");

    std::vector<double> all;
    std::vector<std::vector<double>> perVerb(verbs().size());
    std::vector<std::vector<double>> perLine(prep.lines.size());
    uint64_t truncated = 0;
    for (size_t i = warmSamples; i < tally.samples.size(); ++i) {
        const Sample& s = tally.samples[i];
        all.push_back(s.us);
        perVerb[s.verb].push_back(s.us);
        perLine[s.line].push_back(s.us);
        truncated += s.verdict == Verdict::Truncated;
    }
    // An operation is one position of a connection's list, at its
    // line's cost (perf::cost). Each connection's closed loop then
    // runs its list at list length / summed costs lines per second.
    double opsPerS = 0;
    std::vector<double> opCost;
    for (unsigned c = 0; c < shape.conns; ++c) {
        double passUs = 0;
        for (size_t i : prep.conns[c]) {
            opCost.push_back(cost(perLine[i]));
            passUs += opCost.back();
        }
        opsPerS += static_cast<double>(prep.conns[c].size()) /
                   (passUs / 1e6);
    }
    Report& r = out.report;
    r.add("setup_s", median(setups), "s", setups.size());
    r.add("peak_rss_mb", peakMb, "MB", 1);
    r.add("artifact.bytes_per_stmt",
          static_cast<double>(prep.bytes) / static_cast<double>(prep.stmts),
          "B", 1);
    r.add("ops_per_s", opsPerS, "1/s", all.size());
    r.add("op_p50_us", median(opCost), "us", all.size());
    r.add("op_max_us", *std::max_element(opCost.begin(), opCost.end()),
          "us", all.size());
    r.add("p50_us", median(all), "us", all.size());
    r.add("p99_us", quantile(all, 0.99), "us", all.size());
    std::vector<double> untracedP50(verbs().size(), 0);
    for (size_t v = 0; v < verbs().size(); ++v) {
        if (perVerb[v].empty())
            continue;
        untracedP50[v] = median(perVerb[v]);
        r.add(verbs()[v] + ".p50_us", untracedP50[v], "us",
              perVerb[v].size());
    }
    r.add("truncated_frac",
          static_cast<double>(truncated) / static_cast<double>(all.size()),
          "fraction", all.size());

    out.facts["program"] = prep.program;
    out.facts["stmts"] = std::to_string(prep.stmts);
    out.facts["artifact_bytes"] = std::to_string(prep.bytes);
    out.facts["connections"] = std::to_string(shape.conns);
    out.facts["cache_bound"] = std::to_string(shape.cache);
    out.facts["decode_step_budget"] =
        std::to_string(so.limits.maxDecodeSteps);
    out.facts["distinct_lines"] = std::to_string(prep.lines.size());

    if (opt.trace) {
        // Traced phase on fresh connections: the same closed loops,
        // with a span around each round trip. Afterwards each
        // connection's lines are replayed, one connection at a time,
        // on two shadow sessions configured like the server's and fed
        // the same lines from the same warm state: A times
        // serve::serveLine with parse and an empty scope, B the engine
        // call alone. Shadow work thus never competes with a round
        // trip for the processors.
        clients.clear();
        std::vector<serve::Client> tclients = connect(*stack);
        std::vector<std::unique_ptr<core::QuerySession>> shadowA;
        std::vector<std::unique_ptr<core::QuerySession>> shadowB;
        for (unsigned c = 0; c < shape.conns; ++c) {
            shadowA.push_back(
                std::make_unique<core::QuerySession>(stack->shared, so));
            shadowB.push_back(
                std::make_unique<core::QuerySession>(stack->shared, so));
        }
        warm(tclients);
        tracer().enable();
        std::mutex qmu;
        std::vector<int> verbOf(1, -1); // query id -> verb, guarded
        struct Traced
        {
            size_t line;
            uint64_t query;
            int64_t rtt;
        };
        std::vector<std::vector<Traced>> traced(shape.conns);
        // At most 10 s: the shadow replay afterwards costs about twice
        // the traced phase, and the whole run must stay within 180 s.
        const size_t tracedFrom = tally.samples.size();
        const double tdeadline =
            nowUs() + std::min(opt.seconds, 10.0) * 1e6;
        perConnection(shape.conns, [&](unsigned c) {
            const auto& list = prep.conns[c];
            for (size_t k = 0; nowUs() < tdeadline; ++k) {
                const size_t i = list[k % list.size()];
                uint64_t q = 0;
                {
                    std::lock_guard<std::mutex> lock(qmu);
                    q = verbOf.size();
                    verbOf.push_back(prep.lines[i].verb);
                }
                const double t0 = nowUs();
                roundTrip(tclients[c], prep, i, tally);
                traced[c].push_back(
                    {i, q, tracer().add("serve.rtt", t0, nowUs(), -1, q)});
            }
        });
        std::vector<double> tracedAll;
        for (size_t i = tracedFrom; i < tally.samples.size(); ++i)
            tracedAll.push_back(tally.samples[i].us);

        for (unsigned c = 0; c < shape.conns; ++c) {
            core::QuerySession& a = *shadowA[c];
            core::QuerySession& b = *shadowB[c];
            uint64_t lineNo = 0;
            auto shadow = [&](const Line& l, int64_t rtt, uint64_t q) {
                const bool record = rtt >= 0;
                const double s0 = nowUs();
                serve::serveLine(a, prep.program, l.text, ++lineNo);
                const double s1 = nowUs();
                serve::parseQueryLine(serve::tokenize(l.text));
                const double p1 = nowUs();
                {
                    core::QuerySession::Scope scope(a, "probe");
                }
                const double c1 = nowUs();
                int64_t line = -1;
                if (record) {
                    line = tracer().add("serve.line", s0, s1, rtt, q);
                    tracer().add("serve.parse", s1, p1, line, q);
                    tracer().add("core.session.scope", p1, c1, line, q);
                }
                engineCall(b, l.text, line, q, record);
            };
            for (size_t i : prep.conns[c])
                shadow(prep.lines[i], -1, 0);
            for (const Traced& t : traced[c])
                shadow(prep.lines[t.line], t.rtt, t.query);
        }

        tracedMetrics(r, verbOf, untracedP50);
        r.add("trace.overhead_pct",
              100.0 * (median(tracedAll) - median(all)) / median(all), "%",
              tracedAll.size());

        // Construction and load spans come from the preparation child.
        tracer().load(refPath(opt) + ".spans");
        probeDecode(*stack->art.compressed, opt.seed);
        probeStaticDep(*stack->prog->ma);
        constructionMetrics(r);
    }

    out.attempted = tally.attempted;
    out.failed = tally.failed;
    for (const std::string& f : tally.firstFailures)
        std::printf("FAIL %s\n", f.c_str());
}

} // namespace perf
