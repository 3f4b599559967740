#include "net/wire.hpp"

#include <cstring>

#include "data/binary_io.hpp"
#include "util/error.hpp"

namespace wfbn::net {

namespace {

/// Guards a count field against the bytes actually left in the payload:
/// a well-formed sender always has `count * elem_size` bytes following, so
/// anything larger is malformed — reject before reserving.
void expect_fits(std::uint64_t count, std::size_t elem_size,
                 const bio::BufferReader& reader, const char* what) {
  if (elem_size != 0 && count > reader.remaining() / elem_size) {
    throw DataError(std::string("wire: ") + what +
                    " count exceeds payload bytes");
  }
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  WFBN_EXPECT(s.size() <= 0xFFFFFFFFu, "wire string exceeds u32");
  bio::put_pod(out, static_cast<std::uint32_t>(s.size()));
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(s.data());
  out.insert(out.end(), bytes, bytes + s.size());
}

std::string get_string(bio::BufferReader& reader) {
  const auto len = reader.get<std::uint32_t>();
  expect_fits(len, 1, reader, "string");
  const std::uint8_t* bytes = reader.get_span(len);
  return {reinterpret_cast<const char*>(bytes), len};
}

void put_variables(std::vector<std::uint8_t>& out,
                   const std::vector<std::size_t>& variables) {
  WFBN_EXPECT(variables.size() <= 0xFFFFFFFFu, "wire variable list");
  bio::put_pod(out, static_cast<std::uint32_t>(variables.size()));
  for (const std::size_t v : variables) {
    WFBN_EXPECT(v <= 0xFFFFFFFFu, "wire variable index exceeds u32");
    bio::put_pod(out, static_cast<std::uint32_t>(v));
  }
}

std::vector<std::size_t> get_variables(bio::BufferReader& reader) {
  const auto count = reader.get<std::uint32_t>();
  expect_fits(count, sizeof(std::uint32_t), reader, "variable");
  std::vector<std::size_t> variables;
  variables.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    variables.push_back(reader.get<std::uint32_t>());
  }
  return variables;
}

void expect_drained(const bio::BufferReader& reader, const char* what) {
  if (reader.remaining() != 0) {
    throw DataError(std::string("wire: trailing bytes after ") + what);
  }
}

void put_edge_list(
    std::vector<std::uint8_t>& out,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges) {
  WFBN_EXPECT(edges.size() <= 0xFFFFFFFFu, "wire edge list");
  bio::put_pod(out, static_cast<std::uint32_t>(edges.size()));
  for (const auto& [a, b] : edges) {
    bio::put_pod(out, a);
    bio::put_pod(out, b);
  }
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> get_edge_list(
    bio::BufferReader& reader, const char* what) {
  const auto count = reader.get<std::uint32_t>();
  expect_fits(count, 2 * sizeof(std::uint32_t), reader, what);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto a = reader.get<std::uint32_t>();
    const auto b = reader.get<std::uint32_t>();
    edges.emplace_back(a, b);
  }
  return edges;
}

/// The learn body caps a job's pool width: a wire request must not be able
/// to spawn an unbounded number of server threads.
constexpr std::uint32_t kMaxLearnThreads = 64;

}  // namespace

const char* opcode_name(Opcode op) noexcept {
  switch (op) {
    case Opcode::kMarginal: return "marginal";
    case Opcode::kConditional: return "conditional";
    case Opcode::kPairMi: return "pair_mi";
    case Opcode::kIngest: return "ingest";
    case Opcode::kVersion: return "version";
    case Opcode::kStats: return "stats";
    case Opcode::kFlush: return "flush";
    case Opcode::kLearn: return "learn";
  }
  return "unknown";
}

bool opcode_valid(std::uint8_t raw) noexcept {
  return raw >= static_cast<std::uint8_t>(Opcode::kMarginal) &&
         raw <= static_cast<std::uint8_t>(Opcode::kLearn);
}

const char* status_name(Status status) noexcept {
  switch (status) {
    case Status::kOk: return "OK";
    case Status::kError: return "ERROR";
    case Status::kOverloaded: return "OVERLOADED";
    case Status::kBadRequest: return "BAD_REQUEST";
  }
  return "unknown";
}

RequestClass class_of(Opcode op) noexcept {
  switch (op) {
    case Opcode::kMarginal:
    case Opcode::kConditional:
    case Opcode::kPairMi:
      return RequestClass::kInteractive;
    case Opcode::kIngest:
      return RequestClass::kIngest;
    case Opcode::kVersion:
    case Opcode::kStats:
    case Opcode::kFlush:
    case Opcode::kLearn:
      return RequestClass::kAdmin;
  }
  return RequestClass::kAdmin;
}

const char* class_name(RequestClass cls) noexcept {
  switch (cls) {
    case RequestClass::kInteractive: return "interactive";
    case RequestClass::kIngest: return "ingest";
    case RequestClass::kAdmin: return "admin";
  }
  return "unknown";
}

Dataset Request::ingest_dataset() const {
  return Dataset(static_cast<std::size_t>(ingest_samples),
                 ingest_cardinalities, ingest_cells);
}

std::vector<std::uint8_t> encode_request(const Request& request) {
  std::vector<std::uint8_t> out;
  bio::put_pod(out, request.id);
  bio::put_pod(out, static_cast<std::uint8_t>(request.opcode));
  bio::put_pod(out, static_cast<std::uint8_t>(request.width));
  bio::put_pod(out, std::uint16_t{0});
  switch (request.opcode) {
    case Opcode::kMarginal:
      put_variables(out, request.query.variables);
      break;
    case Opcode::kConditional: {
      put_variables(out, request.query.variables);
      WFBN_EXPECT(request.query.evidence.size() <= 0xFFFFFFFFu,
                  "wire evidence list");
      bio::put_pod(out,
                   static_cast<std::uint32_t>(request.query.evidence.size()));
      for (const Evidence& e : request.query.evidence) {
        WFBN_EXPECT(e.variable <= 0xFFFFFFFFu, "wire evidence variable");
        bio::put_pod(out, static_cast<std::uint32_t>(e.variable));
        bio::put_pod(out, e.state);
      }
      break;
    }
    case Opcode::kPairMi:
      WFBN_EXPECT(request.query.variables.size() == 2,
                  "pair-MI request needs exactly 2 variables");
      put_variables(out, request.query.variables);
      break;
    case Opcode::kIngest: {
      const std::uint64_t n = request.ingest_cardinalities.size();
      WFBN_EXPECT(request.ingest_cells.size() == request.ingest_samples * n,
                  "ingest cells must be samples * variables");
      bio::put_pod(out, request.ingest_samples);
      WFBN_EXPECT(n <= 0xFFFFFFFFu, "wire cardinality list");
      bio::put_pod(out, static_cast<std::uint32_t>(n));
      for (const std::uint32_t c : request.ingest_cardinalities) {
        bio::put_pod(out, c);
      }
      static_assert(sizeof(State) == 1);
      out.insert(out.end(), request.ingest_cells.begin(),
                 request.ingest_cells.end());
      break;
    }
    case Opcode::kLearn: {
      bio::put_pod(out, static_cast<std::uint8_t>(request.learn.algorithm));
      bio::put_pod(out, static_cast<std::uint8_t>(request.learn.method));
      bio::put_pod(out, std::uint16_t{0});
      bio::put_pod(out, request.learn.mi_threshold);
      bio::put_pod(out, request.learn.alpha);
      WFBN_EXPECT(request.learn.max_cutset_size <= 0xFFFFFFFFu,
                  "wire learn cut-set cap");
      bio::put_pod(out,
                   static_cast<std::uint32_t>(request.learn.max_cutset_size));
      WFBN_EXPECT(request.learn.max_level <= 0xFFFFFFFFu, "wire learn level");
      bio::put_pod(out, static_cast<std::uint32_t>(request.learn.max_level));
      WFBN_EXPECT(request.learn.threads >= 1 &&
                      request.learn.threads <= kMaxLearnThreads,
                  "learn threads must be in [1, 64]");
      bio::put_pod(out, static_cast<std::uint32_t>(request.learn.threads));
      break;
    }
    case Opcode::kVersion:
    case Opcode::kStats:
    case Opcode::kFlush:
      break;  // no body
  }
  return out;
}

Request decode_request(std::span<const std::uint8_t> payload) {
  bio::BufferReader reader(payload.data(), payload.size(), "request payload");
  Request request;
  request.id = reader.get<std::uint64_t>();
  const auto raw_opcode = reader.get<std::uint8_t>();
  if (!opcode_valid(raw_opcode)) {
    throw DataError("wire: unknown opcode " + std::to_string(int{raw_opcode}));
  }
  request.opcode = static_cast<Opcode>(raw_opcode);
  const auto raw_width = reader.get<std::uint8_t>();
  if (raw_width > static_cast<std::uint8_t>(KeyWidth::kWide)) {
    throw DataError("wire: unknown key width " +
                    std::to_string(int{raw_width}));
  }
  request.width = static_cast<KeyWidth>(raw_width);
  (void)reader.get<std::uint16_t>();  // reserved
  switch (request.opcode) {
    case Opcode::kMarginal:
      request.query.kind = serve::QueryKind::kMarginal;
      request.query.variables = get_variables(reader);
      break;
    case Opcode::kConditional: {
      request.query.kind = serve::QueryKind::kConditional;
      request.query.variables = get_variables(reader);
      const auto ev_count = reader.get<std::uint32_t>();
      expect_fits(ev_count, sizeof(std::uint32_t) + sizeof(State), reader,
                  "evidence");
      request.query.evidence.reserve(ev_count);
      for (std::uint32_t i = 0; i < ev_count; ++i) {
        Evidence e;
        e.variable = reader.get<std::uint32_t>();
        e.state = reader.get<State>();
        request.query.evidence.push_back(e);
      }
      break;
    }
    case Opcode::kPairMi:
      request.query.kind = serve::QueryKind::kPairMi;
      request.query.variables = get_variables(reader);
      if (request.query.variables.size() != 2) {
        throw DataError("wire: pair-MI request needs exactly 2 variables");
      }
      break;
    case Opcode::kIngest: {
      request.ingest_samples = reader.get<std::uint64_t>();
      const auto n = reader.get<std::uint32_t>();
      expect_fits(n, sizeof(std::uint32_t), reader, "cardinality");
      request.ingest_cardinalities.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        request.ingest_cardinalities.push_back(reader.get<std::uint32_t>());
      }
      const std::uint64_t cells = request.ingest_samples * n;
      if (n != 0 && request.ingest_samples > reader.remaining() / n) {
        throw DataError("wire: ingest cell count exceeds payload bytes");
      }
      static_assert(sizeof(State) == 1);
      const std::uint8_t* raw =
          reader.get_span(static_cast<std::size_t>(cells));
      request.ingest_cells.assign(raw, raw + cells);
      break;
    }
    case Opcode::kLearn: {
      const auto raw_algorithm = reader.get<std::uint8_t>();
      if (raw_algorithm >
          static_cast<std::uint8_t>(serve::LearnAlgorithm::kChowLiu)) {
        throw DataError("wire: unknown learn algorithm " +
                        std::to_string(int{raw_algorithm}));
      }
      request.learn.algorithm = static_cast<serve::LearnAlgorithm>(raw_algorithm);
      const auto raw_method = reader.get<std::uint8_t>();
      if (raw_method > static_cast<std::uint8_t>(CiMethod::kGTest)) {
        throw DataError("wire: unknown CI method " +
                        std::to_string(int{raw_method}));
      }
      request.learn.method = static_cast<CiMethod>(raw_method);
      (void)reader.get<std::uint16_t>();  // reserved
      request.learn.mi_threshold = reader.get<double>();
      request.learn.alpha = reader.get<double>();
      // Negated comparisons so NaN thresholds fail validation too.
      if (!(request.learn.mi_threshold >= 0.0)) {
        throw DataError("wire: learn MI threshold must be >= 0");
      }
      if (!(request.learn.alpha > 0.0 && request.learn.alpha < 1.0)) {
        throw DataError("wire: learn alpha must be in (0, 1)");
      }
      request.learn.max_cutset_size = reader.get<std::uint32_t>();
      if (request.learn.max_cutset_size == 0) {
        throw DataError("wire: learn cut-set cap must be >= 1");
      }
      request.learn.max_level = reader.get<std::uint32_t>();
      const auto threads = reader.get<std::uint32_t>();
      if (threads == 0 || threads > kMaxLearnThreads) {
        throw DataError("wire: learn threads must be in [1, 64]");
      }
      request.learn.threads = threads;
      request.learn.cancel = nullptr;  // never crosses the wire
      break;
    }
    case Opcode::kVersion:
    case Opcode::kStats:
    case Opcode::kFlush:
      break;
  }
  expect_drained(reader, opcode_name(request.opcode));
  return request;
}

// The header of a values answer, as serve::kMaxQueryCells budgets it.
static_assert(sizeof(Response::id) + 2 * sizeof(std::uint8_t) +
                  sizeof(Response::retry_after_ms) + sizeof(Response::version) +
                  sizeof(std::uint8_t) + sizeof(std::uint32_t) ==
              serve::kAnswerHeaderBytes);

std::vector<std::uint8_t> encode_response(const Response& response) {
  std::vector<std::uint8_t> out;
  bio::put_pod(out, response.id);
  bio::put_pod(out, static_cast<std::uint8_t>(response.opcode));
  bio::put_pod(out, static_cast<std::uint8_t>(response.status));
  bio::put_pod(out, response.retry_after_ms);
  if (response.status != Status::kOk) {
    put_string(out, response.error);
    return out;
  }
  switch (response.opcode) {
    case Opcode::kMarginal:
    case Opcode::kConditional:
    case Opcode::kPairMi: {
      bio::put_pod(out, response.version);
      bio::put_pod(out, static_cast<std::uint8_t>(response.cache_hit ? 1 : 0));
      WFBN_EXPECT(response.values.size() <= 0xFFFFFFFFu, "wire value list");
      bio::put_pod(out, static_cast<std::uint32_t>(response.values.size()));
      for (const double v : response.values) bio::put_pod(out, v);
      break;
    }
    case Opcode::kIngest:
      bio::put_pod(out, response.published_version);
      bio::put_pod(out, response.batch_rows);
      break;
    case Opcode::kVersion:
      bio::put_pod(out, response.served_version);
      bio::put_pod(out, response.durable_version);
      break;
    case Opcode::kStats:
      bio::put_pod(out, response.served_version);
      bio::put_pod(out, response.cache_hits);
      bio::put_pod(out, response.cache_misses);
      bio::put_pod(out, response.admitted);
      bio::put_pod(out, response.rejected);
      break;
    case Opcode::kFlush:
      bio::put_pod(out, static_cast<std::uint8_t>(response.flushed ? 1 : 0));
      bio::put_pod(out, response.served_version);
      bio::put_pod(out, response.durable_version);
      break;
    case Opcode::kLearn:
      bio::put_pod(out, response.version);
      bio::put_pod(out, static_cast<std::uint32_t>(response.learn_nodes));
      bio::put_pod(out, response.learn_ci_tests);
      bio::put_pod(out, response.learn_seconds);
      put_edge_list(out, response.learn_skeleton);
      put_edge_list(out, response.learn_edges);
      break;
  }
  return out;
}

Response decode_response(std::span<const std::uint8_t> payload) {
  bio::BufferReader reader(payload.data(), payload.size(), "response payload");
  Response response;
  response.id = reader.get<std::uint64_t>();
  const auto raw_opcode = reader.get<std::uint8_t>();
  if (!opcode_valid(raw_opcode)) {
    throw DataError("wire: unknown opcode " + std::to_string(int{raw_opcode}));
  }
  response.opcode = static_cast<Opcode>(raw_opcode);
  const auto raw_status = reader.get<std::uint8_t>();
  if (raw_status > static_cast<std::uint8_t>(Status::kBadRequest)) {
    throw DataError("wire: unknown status " + std::to_string(int{raw_status}));
  }
  response.status = static_cast<Status>(raw_status);
  response.retry_after_ms = reader.get<std::uint16_t>();
  if (response.status != Status::kOk) {
    response.error = get_string(reader);
    expect_drained(reader, "error response");
    return response;
  }
  switch (response.opcode) {
    case Opcode::kMarginal:
    case Opcode::kConditional:
    case Opcode::kPairMi: {
      response.version = reader.get<std::uint64_t>();
      response.cache_hit = reader.get<std::uint8_t>() != 0;
      const auto count = reader.get<std::uint32_t>();
      expect_fits(count, sizeof(double), reader, "value");
      response.values.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        response.values.push_back(reader.get<double>());
      }
      break;
    }
    case Opcode::kIngest:
      response.published_version = reader.get<std::uint64_t>();
      response.batch_rows = reader.get<std::uint64_t>();
      break;
    case Opcode::kVersion:
      response.served_version = reader.get<std::uint64_t>();
      response.durable_version = reader.get<std::uint64_t>();
      break;
    case Opcode::kStats:
      response.served_version = reader.get<std::uint64_t>();
      response.cache_hits = reader.get<std::uint64_t>();
      response.cache_misses = reader.get<std::uint64_t>();
      response.admitted = reader.get<std::uint64_t>();
      response.rejected = reader.get<std::uint64_t>();
      break;
    case Opcode::kFlush:
      response.flushed = reader.get<std::uint8_t>() != 0;
      response.served_version = reader.get<std::uint64_t>();
      response.durable_version = reader.get<std::uint64_t>();
      break;
    case Opcode::kLearn:
      response.version = reader.get<std::uint64_t>();
      response.learn_nodes = reader.get<std::uint32_t>();
      response.learn_ci_tests = reader.get<std::uint64_t>();
      response.learn_seconds = reader.get<double>();
      response.learn_skeleton = get_edge_list(reader, "skeleton edge");
      response.learn_edges = get_edge_list(reader, "directed edge");
      break;
  }
  expect_drained(reader, opcode_name(response.opcode));
  return response;
}

}  // namespace wfbn::net
