// pb_server — one live HVAC node for the benchmark: a NodeRuntime over
// a PfsBackend with the GPFS-like cost model (hvacd exposes no PFS
// cost model, so the benchmark brings its own host process).
//
// Driven line by line on stdin; every command answers one line on
// stdout:
//   start PFS_ROOT CACHE_ROOT INSTANCES REACTORS MOVERS HANDLERS
//                              -> "ready HOST:PORT[,HOST:PORT...]"
//   stats FILE                 -> "ok"   (metrics frame + PFS counters)
//   cachepath LOGICAL          -> "PATH OFFSET" of the cached copy
//   stop                       -> "stopped" (runtime torn down)
//   quit / EOF                 -> exits
// A fresh `start` after `stop` gives an empty cache, which each
// repeated set-up uses.
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "common.h"
#include "server/node_runtime.h"
#include "storage/pfs_backend.h"

namespace {

using hvac::server::NodeRuntime;
using hvac::server::NodeRuntimeOptions;

std::string stats_json(NodeRuntime& rt) {
  const hvac::storage::PfsBackend& pfs = rt.pfs();
  perfbench::Json p;
  p.num("metadata_ops", double(pfs.metadata_ops()))
      .num("bytes_read", double(pfs.bytes_read()))
      .num("bytes_written", double(pfs.bytes_written()));
  perfbench::Json out;
  out.raw("frame", rt.aggregated_frame().to_json())
      .raw("pfs", p.done())
      .num("rss_mib", perfbench::peak_rss_mib());
  return out.done();
}

}  // namespace

int main() {
  std::unique_ptr<NodeRuntime> rt;
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd == "start") {
      NodeRuntimeOptions o;
      o.pfs_options = hvac::storage::gpfs_like_options();
      in >> o.pfs_root >> o.cache_root >> o.instances >> o.rpc_reactors >>
          o.data_mover_threads >> o.rpc_handler_threads;
      rt.reset();
      rt = std::make_unique<NodeRuntime>(o);
      const hvac::Status st = rt->start();
      if (!st.ok()) {
        std::printf("error %s\n", st.error().to_string().c_str());
        rt.reset();
      } else {
        std::printf("ready %s\n", rt->endpoints_csv().c_str());
      }
    } else if (cmd == "stats" && rt) {
      std::string file;
      in >> file;
      std::printf(perfbench::write_text(file, stats_json(*rt)) ? "ok\n"
                                                               : "error\n");
    } else if (cmd == "cachepath" && rt) {
      std::string logical;
      in >> logical;
      // The benchmark runs one instance, the home of every path. A
      // packed sample lives inside its cached container.
      hvac::server::HvacServer& s = rt->instance(0);
      uint64_t base = 0;
      if (const auto* packed = s.packed_store()) {
        if (auto r = packed->resolve(logical)) {
          logical = r->container_logical;
          base = r->base;
        }
      }
      std::printf("%s %llu\n",
                  s.cache().store().physical_path(logical).c_str(),
                  (unsigned long long)base);
    } else if (cmd == "stop") {
      rt.reset();
      std::printf("stopped\n");
    } else if (cmd == "quit") {
      break;
    } else {
      std::printf("error unknown command\n");
    }
    std::fflush(stdout);
  }
  rt.reset();
  return 0;
}
