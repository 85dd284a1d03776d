(* Every per-layer metric of the traced run, with its unit.  Each
   workload fills in the layers it exercises; a layer it does not touch
   did no work there and reads 0. *)

let all =
  [
    (* set-up *)
    ("mlp.train_s", "s");
    ("mlp.train_alloc_mb", "MB");
    ("core.general_ms", "ms");
    ("net.node_init_ms", "ms");
    (* compile: mDFG construction and spatial scheduling *)
    ("mdfg.compile_ms", "ms");
    ("mdfg.alloc_mb", "MB");
    ("scheduler.schedule_ms", "ms");
    ("scheduler.alloc_mb", "MB");
    ("scheduler.variants_tried", "count");
    ("scheduler.routing_failures", "count");
    (* cycle-level simulation *)
    ("core.layers_over_run", "ratio");
    ("sim.solo_ms", "ms");
    ("sim.corun_ms", "ms");
    ("sim.solo_cycles_per_s", "1/s");
    ("sim.corun_cycles_per_s", "1/s");
    ("sim.solo_alloc_words_per_cycle", "words/cycle");
    ("sim.corun_alloc_words_per_cycle", "words/cycle");
    ("sim.cycles", "cycles");
    ("sim.firings", "count");
    ("sim.dispatches", "count");
    ("sim.l2_mb", "MB");
    ("sim.dram_mb", "MB");
    ("sim.stall_cycles", "cycles");
    (* overlay generation *)
    ("dse.alloc_mb_per_iter", "MB");
    ("dse.accepted", "count");
    ("dse.invalid", "count");
    ("dse.repaired", "count");
    ("dse.incremental", "count");
    ("dse.rescheduled", "count");
    ("dse.accept_ratio", "ratio");
    ("dse.modeled_hours", "h");
    ("dse.est_ipc", "IPC");
    ("scheduler.repairs", "count");
    ("scheduler.rollback_entries", "count");
    ("scheduler.incremental_fallback", "count");
    ("mlp.predict_full_us", "us");
    ("perf.objective_us", "us");
    ("scheduler.schedule_app_ms", "ms");
    (* serving *)
    ("net.rpc_hit_ms", "ms");
    ("net.rpc_miss_ms", "ms");
    ("net.rpc_p99_ms", "ms");
    ("service.hit_us", "us");
    ("service.miss_ms", "ms");
    ("net.outside_service_ms", "ms");
    ("net.server_request_ms", "ms");
    ("service.queue_wait_ms", "ms");
    ("wire.encode_us", "us");
    ("wire.decode_us", "us");
    ("wire.req_bytes", "bytes");
    ("wire.resp_bytes", "bytes");
    ("frontend.parse_us", "us");
    ("cache.hits", "count");
    ("cache.misses", "count");
    ("cache.hit_ratio", "ratio");
  ]

(* The full per-layer metric list from the values one workload measured.
   A name outside [all] is a bug in the benchmark. *)
let metrics measured =
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n all) then
        invalid_arg ("Layers.metrics: unknown layer metric " ^ n))
    measured;
  List.map
    (fun (n, u) ->
      Common.m n u (Option.value ~default:0.0 (List.assoc_opt n measured)))
    all
