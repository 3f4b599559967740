#include "serve_stage.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <system_error>
#include <thread>

namespace perfbench {

namespace fs = std::filesystem;
using namespace wfbn;

namespace {

constexpr std::size_t kServerThreads = 2;
constexpr std::size_t kCheckQueries = 16;  ///< wire answers compared after FLUSH

net::Request to_request(const serve::ServeQuery& query, std::uint64_t id) {
  net::Request request;
  request.id = id;
  switch (query.kind) {
    case serve::QueryKind::kMarginal:
      request.opcode = net::Opcode::kMarginal;
      break;
    case serve::QueryKind::kConditional:
      request.opcode = net::Opcode::kConditional;
      break;
    case serve::QueryKind::kPairMi:
      request.opcode = net::Opcode::kPairMi;
      break;
  }
  request.query = query;
  return request;
}

net::Request to_request(const Dataset& batch) {
  net::Request request;
  request.opcode = net::Opcode::kIngest;
  request.ingest_samples = batch.sample_count();
  request.ingest_cardinalities = batch.cardinalities();
  request.ingest_cells.assign(batch.raw().begin(), batch.raw().end());
  return request;
}

/// Open loop: request i is due at i / rate seconds after the start and is
/// sent as soon as it is due, however many are still in flight, so a stall
/// shows up as latency of every request due during it. `make(i)` builds
/// request i; `on_ok` sees every OK response.
template <typename Make, typename OnOk>
GenResult generate(std::uint16_t port, double rate, double seconds,
                   Make make, OnOk on_ok) {
  GenResult out;
  net::ClientOptions options;
  options.port = port;
  options.timeout_ms = 10000;
  net::ServeClient client(options);

  std::vector<double> sent_at;
  const Clock::time_point start = Clock::now();
  const auto due = [rate](std::uint64_t i) {
    return static_cast<double>(i) / rate;
  };
  const auto take = [&](const net::Response& r) {
    const double now = seconds_since(start);
    switch (r.status) {
      case net::Status::kOk:
        ++out.ok;
        out.latency_ms.push_back((now - due(r.id)) * 1e3);
        out.rtt_ms.push_back((now - sent_at[r.id]) * 1e3);
        if (r.cache_hit) ++out.cache_hits;
        on_ok(r);
        break;
      case net::Status::kOverloaded:
        ++out.overloaded;
        break;
      default:
        ++out.errors;
        break;
    }
  };

  std::uint64_t next = 0;
  while (seconds_since(start) < seconds) {
    while (due(next) <= seconds_since(start) && due(next) < seconds) {
      const net::Request request = make(next);
      const double t = seconds_since(start);
      sent_at.push_back(t);
      out.late_ms.push_back((t - due(next)) * 1e3);
      client.send(request);
      ++out.sent;
      ++next;
    }
    // Drain without blocking, then nap briefly: polling on a short timer
    // keeps a receipt or a send from waiting on a cross-CPU wakeup, and
    // holds neither back by more than ~0.1 ms.
    while (std::optional<net::Response> r = client.try_receive(0)) take(*r);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  // Stragglers, bounded: whatever has not answered by the deadline is lost.
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
  while (out.ok + out.overloaded + out.errors < out.sent &&
         Clock::now() < deadline) {
    try {
      if (std::optional<net::Response> r = client.try_receive(50)) take(*r);
    } catch (const std::exception&) {
      break;
    }
  }
  out.errors += out.sent - (out.ok + out.overloaded + out.errors);
  return out;
}

}  // namespace

void GenResult::add(const GenResult& other) {
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
  rtt_ms.insert(rtt_ms.end(), other.rtt_ms.begin(), other.rtt_ms.end());
  late_ms.insert(late_ms.end(), other.late_ms.begin(), other.late_ms.end());
  sent += other.sent;
  ok += other.ok;
  overloaded += other.overloaded;
  errors += other.errors;
  cache_hits += other.cache_hits;
}

ServeRig::ServeRig(const ServeInputs& inputs, fs::path dir)
    : inputs_(inputs), dir_(std::move(dir)) {
  fs::remove_all(dir_);
  fs::create_directories(dir_);
  for (const Dataset& batch : inputs_.batches) {
    ingest_requests_.push_back(to_request(batch));
  }
  WaitFreeBuilderOptions build;
  build.threads = kServerThreads;
  durable_ = std::make_unique<serve::persist::DurableTableStore>(
      dir_, WaitFreeBuilder(build).build(inputs_.base));
  engine_ = std::make_unique<serve::ServeEngine>(durable_->store());
  pool_ = std::make_unique<ThreadPool>(kServerThreads);
  server_ = std::make_unique<net::ServeServer>(*engine_, *pool_,
                                               net::ServerOptions{},
                                               durable_.get());
  server_->start();
  // Warm-up: connection set-up, first serve_batch, first-touch faults.
  net::ClientOptions options;
  options.port = server_->port();
  net::ServeClient client(options);
  for (std::uint64_t i = 0; i < 16 && i < inputs_.queries.size(); ++i) {
    (void)client.call(to_request(inputs_.queries[i], i));
  }
}

ServeRig::~ServeRig() {
  if (server_) server_->stop();
  server_.reset();
  pool_.reset();
  engine_.reset();
  durable_.reset();
  std::error_code ec;
  fs::remove_all(dir_, ec);
}

void ServeRig::window(const ServeConfig& config, double seconds) {
  const ServeInputs& in = inputs_;
  const std::uint16_t port = server_->port();
  const std::uint64_t first_query = queries_.sent;
  const std::uint64_t first_ingest = ingests_.sent;
  GenResult queries;
  GenResult ingests;
  // A generator whose connection breaks counts one failed operation.
  const auto guarded = [](GenResult& result, const auto& body) {
    try {
      result = body();
    } catch (const std::exception&) {
      ++result.sent;
      ++result.errors;
    }
  };
  std::thread interactive([&] {
    guarded(queries, [&] {
      return generate(
          port, config.query_rate, seconds,
          [&](std::uint64_t i) {
            return to_request(
                in.queries[(first_query + i) % in.queries.size()], i);
          },
          [](const net::Response&) {});
    });
  });
  std::thread ingest([&] {
    guarded(ingests, [&] {
      return generate(
          port, config.ingest_rate, seconds,
          [&](std::uint64_t i) {
            net::Request request = ingest_requests_[(first_ingest + i) %
                                                    ingest_requests_.size()];
            request.id = i;
            return request;
          },
          [&](const net::Response&) {
            const std::uint64_t served = durable_->version();
            const std::uint64_t durable = durable_->last_durable_version();
            if (served > durable) {
              lag_versions_max_ =
                  std::max(lag_versions_max_, served - durable);
            }
          });
    });
  });
  interactive.join();
  ingest.join();

  window_p50_ms_.push_back(percentile(queries.latency_ms, 50));
  queries_.add(queries);
  ingests_.add(ingests);
}

ServeOutcome ServeRig::finish(const ServeConfig& config, Ledger& ledger,
                              Mutation mutation) {
  const ServeInputs& in = inputs_;
  const GenResult& queries = queries_;
  const GenResult& ingests = ingests_;
  ServeOutcome out;
  for (const GenResult* g : {&queries, &ingests}) {
    ledger.attempted += g->sent;
    ledger.failed += g->overloaded + g->errors;
    out.overloaded += g->overloaded;
    out.errors += g->errors;
  }
  out.queries_sent = queries.sent;
  out.ingests_sent = ingests.sent;
  out.query_p10_ms = percentile(queries.latency_ms, 10);
  out.query_p50_ms = percentile(queries.latency_ms, 50);
  out.query_p99_ms = percentile(queries.latency_ms, 99);
  out.ingest_p50_ms = percentile(ingests.latency_ms, 50);
  out.ingest_p90_ms = percentile(ingests.latency_ms, 90);
  out.cache_hit_rate = queries.ok == 0
                           ? 0.0
                           : static_cast<double>(queries.cache_hits) /
                                 static_cast<double>(queries.ok);
  std::vector<double> late = queries.late_ms;
  late.insert(late.end(), ingests.late_ms.begin(), ingests.late_ms.end());
  out.late_ms_p99 = percentile(late, 99);
  out.late_ms_max = late.empty() ? 0.0 : *std::max_element(late.begin(), late.end());
  out.rtt_ms_p50 = percentile(queries.rtt_ms, 50);
  out.rtt_ms_mean =
      queries.rtt_ms.empty()
          ? 0.0
          : std::accumulate(queries.rtt_ms.begin(), queries.rtt_ms.end(), 0.0) /
                static_cast<double>(queries.rtt_ms.size());
  out.lag_versions_max = lag_versions_max_;

  // Final FLUSH over the wire, then the answer and recovery checks.
  net::ClientOptions options;
  options.port = server_->port();
  options.timeout_ms = 30000;
  net::ServeClient admin(options);
  net::Request flush;
  flush.opcode = net::Opcode::kFlush;
  const Clock::time_point flush_start = Clock::now();
  const net::Response flushed = admin.call(flush);
  out.flush_s = seconds_since(flush_start);
  const std::uint64_t final_version = durable_->version();
  ledger.check(flushed.status == net::Status::kOk && flushed.flushed &&
                   durable_->last_durable_version() == final_version,
               "serve.final_flush");

  for (std::size_t k = 0; k < kCheckQueries && k < in.queries.size(); ++k) {
    net::Response wire = admin.call(to_request(in.queries[k], k));
    if (mutation == Mutation::kWireAnswer && k == 0 && !wire.values.empty()) {
      wire.values[0] = std::nextafter(wire.values[0], 2.0);
    }
    const serve::ServeResult direct = engine_->serve(in.queries[k]);
    ledger.check(wire.status == net::Status::kOk &&
                     wire.version == final_version &&
                     direct.version == final_version &&
                     same_bits(wire.values, direct.values),
                 "serve.wire_equals_engine");
  }

  const net::ServerStats server_stats = server_->stats();
  out.batch_size = server_stats.batches_served == 0
                       ? 0.0
                       : static_cast<double>(server_stats.batched_queries) /
                             static_cast<double>(server_stats.batches_served);
  const TableDigest served = digest(durable_->current()->table());
  server_->stop();
  server_.reset();
  engine_.reset();
  out.coalesced = durable_->persist_stats().coalesced;
  durable_.reset();  // drains the persist mailbox
  std::error_code ec;
  const auto bytes =
      fs::file_size(dir_ / serve::persist::segment_name(final_version), ec);
  out.segment_bytes = ec ? 0.0 : static_cast<double>(bytes);

  const Clock::time_point recover_start = Clock::now();
  const serve::persist::RecoveryResult<Key> recovered =
      serve::persist::recover_store_dir<Key>(dir_);
  out.recover_s = seconds_since(recover_start);
  ledger.check(recovered.table.has_value() &&
                   recovered.report.recovered_version == final_version &&
                   digest(*recovered.table) == served,
               "persist.recover_digest");

  if (config.replay) {
    // The same event sequence — queries and ingests merged by due time —
    // replayed closed-loop on an engine over a fresh in-memory store.
    WaitFreeBuilderOptions build;
    build.threads = kServerThreads;
    serve::TableStore store(WaitFreeBuilder(build).build(in.base));
    serve::ServeEngine engine(store);
    std::vector<double> query_ms;
    std::vector<double> ingest_ms;
    std::uint64_t q = 0;
    std::uint64_t b = 0;
    while (q < out.queries_sent || b < out.ingests_sent) {
      const double q_due = static_cast<double>(q) / config.query_rate;
      const double b_due = static_cast<double>(b) / config.ingest_rate;
      const Clock::time_point t = Clock::now();
      if (b >= out.ingests_sent || (q < out.queries_sent && q_due < b_due)) {
        (void)engine.serve(in.queries[q % in.queries.size()]);
        query_ms.push_back(seconds_since(t) * 1e3);
        ++q;
      } else {
        (void)engine.ingest(in.batches[b % in.batches.size()]);
        ingest_ms.push_back(seconds_since(t) * 1e3);
        ++b;
      }
    }
    out.engine_query_ms_p50 = percentile(query_ms, 50);
    out.engine_query_ms_p99 = percentile(query_ms, 99);
    out.engine_ingest_ms_p50 = percentile(ingest_ms, 50);
    out.engine_ingest_ms_p99 = percentile(ingest_ms, 99);
  }
  return out;
}

}  // namespace perfbench
