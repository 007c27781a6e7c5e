#include "serve/wire.hpp"

#include <istream>
#include <sstream>

#include "circuit/qasm.hpp"
#include "common/error.hpp"

namespace qa
{
namespace serve
{

namespace
{

NoiseModel
decodeNoise(const JsonValue& noise)
{
    if (noise.isNull()) return NoiseModel{};
    std::string kind;
    if (noise.isString()) {
        kind = noise.asString();
    } else if (noise.isObject()) {
        kind = noise.stringOr("kind", "");
    } else {
        QA_FAIL_CODE(ErrorCode::kBadRequest,
                     "noise must be a string or an object");
    }
    if (kind.empty() || kind == "none") return NoiseModel{};
    if (kind == "melbourne" || kind == "ibmq_melbourne") {
        return NoiseModel::ibmqMelbourneLike();
    }
    if (kind == "depolarizing") {
        QA_REQUIRE_CODE(noise.isObject(), ErrorCode::kBadRequest,
                        "depolarizing noise needs p1/p2 fields");
        const double p1 = noise.numberOr("p1", 0.0);
        const double p2 = noise.numberOr("p2", 0.0);
        return NoiseModel::depolarizing(p1, p2);
    }
    QA_FAIL_CODE(ErrorCode::kBadRequest,
                 "unknown noise kind '" + kind +
                     "' (expected none|melbourne|depolarizing)");
}

std::vector<std::vector<int>>
decodeSlots(const JsonValue& slots)
{
    std::vector<std::vector<int>> out;
    for (const JsonValue& slot : slots.asArray()) {
        std::vector<int> clbits;
        for (const JsonValue& bit : slot.asArray()) {
            clbits.push_back(int(bit.asInt()));
        }
        out.push_back(std::move(clbits));
    }
    return out;
}

void
encodeCounts(std::ostringstream& oss, const Counts& counts)
{
    oss << "{";
    bool first = true;
    for (const auto& [bits, n] : counts.map) {
        if (!first) oss << ",";
        first = false;
        oss << "\"" << jsonEscape(bits) << "\":" << n;
    }
    oss << "}";
}

void
encodeIntArray(std::ostringstream& oss, const std::vector<int>& values)
{
    oss << "[";
    for (size_t i = 0; i < values.size(); ++i) {
        if (i) oss << ",";
        oss << values[i];
    }
    oss << "]";
}

/**
 * The assertion compiler's lowering report, shared by run results,
 * replay lines, and auto_assert explains: `,"auto_assert":{...}`.
 */
void
encodeAutoAssert(std::ostringstream& oss,
                 const std::vector<acomp::SlotSummary>& slots,
                 int variants)
{
    oss << ",\"auto_assert\":{\"generated\":" << slots.size()
        << ",\"variants\":" << variants << ",\"slots\":[";
    for (size_t i = 0; i < slots.size(); ++i) {
        const acomp::SlotSummary& slot = slots[i];
        if (i) oss << ",";
        oss << "{\"form\":\"" << acomp::formName(slot.form) << "\""
            << ",\"invariant\":\""
            << acomp::invariantClassName(slot.invariant) << "\""
            << ",\"position\":" << slot.position << ",\"qubits\":";
        encodeIntArray(oss, slot.qubits);
        oss << ",\"clbits\":";
        encodeIntArray(oss, slot.clbits);
        oss << ",\"ancillas\":" << slot.ancillas.size()
            << ",\"gates\":" << slot.gates << ",\"cx\":" << slot.cx
            << ",\"sub_circuits\":" << slot.sub_circuits
            << ",\"generators\":" << slot.generators;
        if (slot.source_line > 0) {
            oss << ",\"source\":{\"line\":" << slot.source_line
                << ",\"col\":" << slot.source_col << "}";
        }
        oss << "}";
    }
    oss << "]}";
}

/** The MPS facts block for results that resolved to the MPS backend. */
void
encodeMpsBlock(std::ostringstream& oss, const JobResult& result)
{
    oss << ",\"mps\":{\"chi\":" << result.backend.mps_chi
        << ",\"ent_width\":" << result.backend.mps_ent_width
        << ",\"trunc_bound\":"
        << jsonNumber(result.backend.mps_trunc_bound)
        << ",\"truncation_error\":"
        << jsonNumber(result.mps_truncation_error) << "}";
}

void
encodeHistogram(std::ostringstream& oss, const char* name,
                const LatencyHistogramSnapshot& hist)
{
    oss << "\"" << name << "\":{\"total\":" << hist.total
        << ",\"mean_ms\":" << jsonNumber(hist.meanMs())
        << ",\"max_ms\":" << jsonNumber(hist.max_ms) << ",\"buckets\":[";
    for (size_t i = 0; i < hist.counts.size(); ++i) {
        if (i) oss << ",";
        oss << hist.counts[i];
    }
    oss << "]}";
}

} // namespace

std::string
requestId(const JsonValue& request)
{
    const JsonValue* id = request.find("id");
    if (id == nullptr) return "";
    if (id->isString()) return id->asString();
    if (id->isNumber()) return jsonNumber(id->asNumber());
    return "";
}

WireRequest
buildRequest(const JsonValue& request)
{
    QA_REQUIRE_CODE(request.isObject(), ErrorCode::kBadRequest,
                    "request must be a JSON object");
    WireRequest out;
    out.id = requestId(request);

    const std::string op = request.stringOr("op", "run");
    if (op == "metrics") {
        out.op = RequestOp::kMetrics;
        return out;
    }
    if (op == "ping") {
        out.op = RequestOp::kPing;
        return out;
    }
    if (op == "shutdown") {
        out.op = RequestOp::kShutdown;
        return out;
    }
    QA_REQUIRE_CODE(op == "run" || op == "explain",
                    ErrorCode::kBadRequest,
                    "unknown op '" + op +
                        "' (expected run|explain|metrics|ping|shutdown)");
    if (op == "explain") out.op = RequestOp::kExplain;

    const JsonValue* qasm = request.find("qasm");
    QA_REQUIRE_CODE(qasm != nullptr && qasm->isString(),
                    ErrorCode::kBadRequest,
                    "run request needs a string 'qasm' field");
    out.spec.circuit =
        parseQasm(qasm->asString(), &out.spec.qasm_positions);
    out.spec.shots = int(request.intOr("shots", out.spec.shots));
    QA_REQUIRE_CODE(out.spec.shots > 0, ErrorCode::kBadRequest,
                    "shots must be positive");
    out.spec.seed = uint64_t(request.intOr("seed", int64_t(out.spec.seed)));
    out.spec.deadline_ms = request.numberOr("deadline_ms", 0.0);
    out.spec.priority = int(request.intOr("priority", 0));
    // Defaults live on JobSpec (sim/options.hpp defaults namespace);
    // the wire layer only overrides what the request names.
    out.spec.num_threads =
        int(request.intOr("threads", out.spec.num_threads));
    out.spec.use_cache = request.boolOr("cache", true);
    const std::string backend =
        request.stringOr("backend", backendRequestName(out.spec.backend));
    QA_REQUIRE_CODE(parseBackendRequest(backend, &out.spec.backend),
                    ErrorCode::kBadRequest,
                    "unknown backend '" + backend +
                        "' (expected auto|statevector|density_matrix|"
                        "stabilizer|mps)");
    out.spec.mps_chi = int(request.intOr("mps_chi", out.spec.mps_chi));
    QA_REQUIRE_CODE(out.spec.mps_chi >= 1 && out.spec.mps_chi <= 1024,
                    ErrorCode::kBadRequest,
                    "mps_chi must be in [1, 1024]");
    out.spec.mps_trunc_tol =
        request.numberOr("mps_tol", out.spec.mps_trunc_tol);
    QA_REQUIRE_CODE(out.spec.mps_trunc_tol >= 0.0, ErrorCode::kBadRequest,
                    "mps_tol must be non-negative");
    out.spec.tag = out.id;
    out.spec.auto_assert = request.boolOr("auto_assert", false);
    const std::string lowering = request.stringOr(
        "assert_lowering",
        acomp::loweringRequestName(out.spec.assert_lowering));
    QA_REQUIRE_CODE(
        acomp::parseLoweringRequest(lowering, &out.spec.assert_lowering),
        ErrorCode::kBadRequest,
        "unknown assert_lowering '" + lowering +
            "' (expected auto|swap|or|ndd|pauli|pauli_sample)");
    if (const JsonValue* slots = request.find("assert_clbits")) {
        out.spec.assert_clbits = decodeSlots(*slots);
    }
    if (const JsonValue* noise = request.find("noise")) {
        out.spec.noise = decodeNoise(*noise);
    }
    return out;
}

WireRequest
parseRequest(const std::string& line)
{
    return buildRequest(JsonValue::parse(line));
}

std::string
encodeResult(const std::string& id, const JobResult& result)
{
    if (result.status != JobStatus::kOk) {
        return encodeError(id.empty() ? result.tag : id, result.error_code,
                           result.error_message);
    }
    std::ostringstream oss;
    oss << "{\"id\":\"" << jsonEscape(id) << "\",\"status\":\"ok\""
        << ",\"cache_hit\":" << (result.cache_hit ? "true" : "false")
        << ",\"backend\":\"" << backendName(result.backend.backend)
        << "\""
        << ",\"shots\":" << result.counts.shots
        << ",\"truncated\":" << (result.truncated ? "true" : "false")
        << ",\"pass_rate\":" << jsonNumber(result.pass_rate);
    oss << ",\"slot_error_rate\":[";
    for (size_t i = 0; i < result.slot_error_rate.size(); ++i) {
        if (i) oss << ",";
        oss << jsonNumber(result.slot_error_rate[i]);
    }
    oss << "]";
    oss << ",\"counts\":";
    encodeCounts(oss, result.counts);
    if (!result.slot_error_rate.empty()) {
        oss << ",\"program_counts\":";
        encodeCounts(oss, result.program_counts);
        oss << ",\"accepted_shots\":" << result.program_counts.shots;
    }
    if (!result.assertions.empty()) {
        encodeAutoAssert(oss, result.assertions, result.assert_variants);
    }
    if (result.backend.backend == BackendKind::kMps) {
        encodeMpsBlock(oss, result);
    }
    oss << ",\"queue_ms\":" << jsonNumber(result.queue_ms)
        << ",\"exec_ms\":" << jsonNumber(result.exec_ms) << "}";
    return oss.str();
}

std::string
encodeReplay(const std::string& id, const JobResult& result)
{
    if (result.status != JobStatus::kOk) {
        return encodeError(id.empty() ? result.tag : id, result.error_code,
                           result.error_message);
    }
    std::ostringstream oss;
    oss << "{\"id\":\"" << jsonEscape(id) << "\",\"status\":\"ok\""
        << ",\"backend\":\"" << backendName(result.backend.backend)
        << "\""
        << ",\"shots\":" << result.counts.shots
        << ",\"truncated\":" << (result.truncated ? "true" : "false")
        << ",\"pass_rate\":" << jsonNumber(result.pass_rate);
    oss << ",\"slot_error_rate\":[";
    for (size_t i = 0; i < result.slot_error_rate.size(); ++i) {
        if (i) oss << ",";
        oss << jsonNumber(result.slot_error_rate[i]);
    }
    oss << "]";
    oss << ",\"counts\":";
    encodeCounts(oss, result.counts);
    if (!result.slot_error_rate.empty()) {
        oss << ",\"program_counts\":";
        encodeCounts(oss, result.program_counts);
        oss << ",\"accepted_shots\":" << result.program_counts.shots;
    }
    if (!result.assertions.empty()) {
        encodeAutoAssert(oss, result.assertions, result.assert_variants);
    }
    if (result.backend.backend == BackendKind::kMps) {
        encodeMpsBlock(oss, result);
    }
    oss << "}";
    return oss.str();
}

std::string
encodeError(const std::string& id, ErrorCode code,
            const std::string& message, double retry_after_ms)
{
    std::ostringstream oss;
    oss << "{\"id\":\"" << jsonEscape(id) << "\",\"status\":\"error\""
        << ",\"code\":\"" << errorCodeName(code) << "\""
        << ",\"message\":\"" << jsonEscape(message) << "\"";
    if (retry_after_ms > 0.0) {
        oss << ",\"retry_after_ms\":" << jsonNumber(retry_after_ms);
    }
    oss << "}";
    return oss.str();
}

std::string
encodePing(const std::string& id, size_t queue_depth, size_t in_flight)
{
    std::ostringstream oss;
    oss << "{\"id\":\"" << jsonEscape(id) << "\",\"status\":\"ok\""
        << ",\"pong\":true,\"queue_depth\":" << queue_depth
        << ",\"in_flight\":" << in_flight << "}";
    return oss.str();
}

bool
peekResponseId(const std::string& line, std::string* id)
{
    static const std::string kPrefix = "{\"id\":\"";
    if (line.compare(0, kPrefix.size(), kPrefix) != 0) return false;
    const size_t start = kPrefix.size();
    const size_t end = line.find('"', start);
    if (end == std::string::npos) return false;
    if (line.find('\\', start) < end) return false; // escaped: full parse
    id->assign(line, start, end - start);
    return true;
}

std::string
encodeExplain(const std::string& id, const backend::BackendChoice& choice,
              const acomp::CompiledProgram* compiled)
{
    std::ostringstream oss;
    oss << "{\"id\":\"" << jsonEscape(id) << "\",\"status\":\"ok\""
        << ",\"class\":\""
        << backend::circuitClassName(choice.klass) << "\""
        << ",\"backend\":\"" << backendName(choice.backend) << "\""
        << ",\"explicit\":" << (choice.explicit_request ? "true" : "false")
        << ",\"capable\":" << (choice.capable ? "true" : "false")
        << ",\"non_clifford_gates\":" << choice.non_clifford_gates
        << ",\"fusion\":{\"enabled\":"
        << (choice.fusion_enabled ? "true" : "false")
        << ",\"gates_in\":" << choice.fusion.gates_in
        << ",\"gates_out\":" << choice.fusion.gates_out
        << ",\"fused_groups\":" << choice.fusion.fused_groups
        << ",\"max_group\":" << choice.fusion.max_group
        << ",\"ratio\":" << jsonNumber(choice.fusion.ratio())
        << ",\"kernels\":{";
    bool first = true;
    for (const auto& [name, n] : choice.fusion.kernel_counts) {
        if (!first) oss << ",";
        first = false;
        oss << "\"" << jsonEscape(name) << "\":" << n;
    }
    oss << "}}"
        << ",\"mps\":{\"chi\":" << choice.mps_chi
        << ",\"ent_width\":" << choice.mps_ent_width
        << ",\"trunc_bound\":" << jsonNumber(choice.mps_trunc_bound)
        << "}"
        << ",\"reason\":\"" << jsonEscape(choice.reason) << "\"";
    if (compiled != nullptr) {
        encodeAutoAssert(oss, compiled->slots,
                         int(compiled->variants.size()));
    }
    oss << "}";
    return oss.str();
}

std::string
encodeMetrics(const MetricsSnapshot& snapshot)
{
    std::ostringstream oss;
    oss << "{\"status\":\"ok\",\"metrics\":{"
        << "\"accepted\":" << snapshot.accepted
        << ",\"rejected\":" << snapshot.rejected
        << ",\"completed\":" << snapshot.completed
        << ",\"failed\":" << snapshot.failed
        << ",\"cancelled\":" << snapshot.cancelled
        << ",\"retried\":" << snapshot.retried
        << ",\"shed\":" << snapshot.shed
        << ",\"worker_lost\":" << snapshot.worker_lost
        << ",\"respawned\":" << snapshot.respawned
        << ",\"queue_depth\":" << snapshot.queue_depth
        << ",\"in_flight\":" << snapshot.in_flight
        << ",\"cache_hits\":" << snapshot.cache_hits
        << ",\"cache_misses\":" << snapshot.cache_misses
        << ",\"cache_insertions\":" << snapshot.cache_insertions
        << ",\"cache_evictions\":" << snapshot.cache_evictions
        << ",\"cache_entries\":" << snapshot.cache_entries
        << ",\"cache_hit_rate\":" << jsonNumber(snapshot.cacheHitRate())
        << ",\"backend_jobs\":{";
    for (size_t k = 0; k < snapshot.backend_jobs.size(); ++k) {
        oss << (k == 0 ? "" : ",") << "\"" << backendName(BackendKind(k))
            << "\":" << snapshot.backend_jobs[k];
    }
    oss << "},";
    encodeHistogram(oss, "queue_wait_ms", snapshot.queue_wait);
    oss << ",";
    encodeHistogram(oss, "execute_ms", snapshot.execute);
    oss << "}}";
    return oss.str();
}

ReadLineStatus
readLineBounded(std::istream& in, std::string* out, size_t max_len)
{
    out->clear();
    bool overflow = false;
    for (;;) {
        const int ch = in.get();
        if (ch == std::char_traits<char>::eof()) {
            // EOF (or a failed read, e.g. EINTR from a drain signal)
            // with buffered bytes still yields the partial line.
            if (out->empty() && !overflow) return ReadLineStatus::kEof;
            break;
        }
        if (ch == '\n') break;
        if (overflow) continue; // discard to the terminator
        if (out->size() >= max_len) {
            overflow = true;
            out->clear();
            continue;
        }
        out->push_back(char(ch));
    }
    return overflow ? ReadLineStatus::kOverflow : ReadLineStatus::kOk;
}

} // namespace serve
} // namespace qa
