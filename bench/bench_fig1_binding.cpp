// FIG1 — Figure 1 of the paper: a distributed shared object spanning
// four address spaces, accessed through local objects.
//
// The figure is architectural; the measurable content is the machinery
// it implies: binding (name lookup + location lookup + subscription),
// invocation marshalling, and local-vs-remote method invocation. This
// bench reproduces the 4-address-space deployment and reports the cost
// of each mechanism, plus google-benchmark microbenchmarks for the
// marshalling fast paths.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"

namespace globe::bench {
namespace {

void emit_table() {
  // One object across four address spaces (Figure 1): a permanent store,
  // one mirror, and two client address spaces with their local objects.
  TestbedOptions opts;
  opts.wan.base_latency = sim::SimDuration::millis(25);
  Testbed bed(opts);
  constexpr ObjectId kObj = 1;
  core::ReplicationPolicy policy;
  policy.instant = core::TransferInstant::kImmediate;

  auto& primary = bed.add_primary(kObj, policy, "as1-server");
  primary.seed("index.html", std::string(2048, 'x'));
  auto& mirror = bed.add_store(kObj, naming::StoreClass::kObjectInitiated,
                               policy, {}, "as2-mirror");
  bed.settle();
  bed.publish(kObj, "object/figure1");

  auto& near_client = bed.add_client(kObj, coherence::ClientModel::kNone,
                                     mirror.address(), {}, "as3-client");
  auto& far_client = bed.add_client(kObj, coherence::ClientModel::kNone,
                                    primary.address(), {}, "as4-client");
  // Make as3 close to the mirror (same metro), as4 far from the server.
  sim::LinkSpec near_link;
  near_link.base_latency = sim::SimDuration::millis(2);
  bed.net().set_link(near_client.address().node, mirror.address().node,
                     near_link);

  metrics::TablePrinter table({"mechanism", "virtual time (ms)", "messages"});
  auto measure = [&](const std::string& label, auto&& fn) {
    const auto msgs0 = bed.net().stats().messages_sent;
    const auto t0 = bed.sim().now();
    fn();
    bed.settle();
    table.add_row(
        {label,
         metrics::TablePrinter::num((bed.sim().now() - t0).count_millis(), 2),
         metrics::TablePrinter::num(bed.net().stats().messages_sent - msgs0)});
  };

  measure("bind: name + locate via naming service", [&] {
    naming::NamingClient nc(bed.factory(bed.add_node("binder")), &bed.sim(),
                            bed.naming().address());
    nc.lookup("object/figure1", [&nc](bool ok, ObjectId id) {
      if (ok) nc.locate(id, [](bool, std::vector<naming::ContactPoint>) {});
    });
  });
  measure("invoke: read via nearby local object (as3 -> mirror)", [&] {
    near_client.read("index.html", [](replication::ReadResult) {});
  });
  measure("invoke: read via remote local object (as4 -> server)", [&] {
    far_client.read("index.html", [](replication::ReadResult) {});
  });
  measure("invoke: write + propagation to all address spaces", [&] {
    far_client.write("index.html", std::string(2048, 'y'),
                     [](replication::WriteResult) {});
  });

  std::printf(
      "FIG1 — one distributed shared object across four address spaces\n"
      "(Figure 1): cost of binding and of method invocation through the\n"
      "local-object composition (25ms WAN, 2ms metro link)\n\n%s\n",
      table.render().c_str());
}

// -- microbenchmarks: the marshalling path every invocation crosses ----

void BM_InvocationEncode(benchmark::State& state) {
  const std::string content(state.range(0), 'x');
  for (auto _ : state) {
    auto inv = msg::Invocation::put_page("page.html", content);
    benchmark::DoNotOptimize(util::encoded(inv));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InvocationEncode)->Arg(64)->Arg(1024)->Arg(16384);

void BM_InvocationDecode(benchmark::State& state) {
  const std::string content(state.range(0), 'x');
  const auto wire =
      util::encoded(msg::Invocation::put_page("page.html", content));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        msg::Invocation::decode(util::BytesView(wire)));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InvocationDecode)->Arg(64)->Arg(1024)->Arg(16384);

void BM_EnvelopeRoundTrip(benchmark::State& state) {
  msg::Envelope env;
  env.type = msg::MsgType::kInvokeRequest;
  env.object = 1;
  env.request_id = 42;
  env.body = util::to_buffer(std::string(state.range(0), 'b'));
  for (auto _ : state) {
    auto wire = env.encode();
    benchmark::DoNotOptimize(msg::Envelope::decode(util::BytesView(wire)));
  }
}
BENCHMARK(BM_EnvelopeRoundTrip)->Arg(64)->Arg(4096);

void BM_WriteRecordRoundTrip(benchmark::State& state) {
  web::WriteRecord rec;
  rec.wid = {1, 1};
  rec.page = "page.html";
  rec.content = std::string(state.range(0), 'c');
  for (auto _ : state) {
    util::Writer w;
    rec.encode(w);
    util::Reader r{util::BytesView(w.view())};
    benchmark::DoNotOptimize(web::WriteRecord::decode(r));
  }
}
BENCHMARK(BM_WriteRecordRoundTrip)->Arg(64)->Arg(4096);

void BM_DocumentSnapshot(benchmark::State& state) {
  web::WebDocument doc;
  for (int i = 0; i < state.range(0); ++i) {
    web::WriteRecord rec;
    rec.wid = {1, static_cast<std::uint64_t>(i + 1)};
    rec.page = "page" + std::to_string(i);
    rec.content = std::string(1024, 'd');
    doc.apply(rec);
  }
  for (auto _ : state) {
    // encode_snapshot: measure the encoder itself, not the cache hit.
    benchmark::DoNotOptimize(doc.encode_snapshot());
  }
}
BENCHMARK(BM_DocumentSnapshot)->Arg(1)->Arg(16)->Arg(128);

}  // namespace
}  // namespace globe::bench

int main(int argc, char** argv) {
  globe::bench::emit_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
