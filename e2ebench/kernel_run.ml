(* kernel-run: the application developer's loop.  Each pass compiles and
   simulates every suite kernel on the general overlay with
   [Overgen.run], compiles each once more on its own with
   [Overgen.compile], and co-runs nine fixed kernel pairs with
   [Sim.run_multi], each pair on 2 + 2 tiles. *)

open Common
open Overgen_workload
module Sim = Overgen_sim.Sim
module Compile = Overgen_mdfg.Compile
module Perf = Overgen_perf.Perf

(* Heterogeneous pairs across the three suites; acc-weight runs solo
   only.  Fixed, so simulated cycles do not depend on the seed. *)
let pairs =
  [
    ("fir", "stencil-2d");
    ("mm", "crs");
    ("gemm", "ellpack");
    ("fft", "bgr2grey");
    ("cholesky", "blur");
    ("solver", "accumulate");
    ("stencil-3d", "vecmax");
    ("channel-ext", "derivative");
    ("acc-sqr", "convert-bit");
  ]

let tiles_per_tenant = 2

(* A pass takes about 2 s on the reference machine. *)
let work_units seconds = max 1 (int_of_float (Float.round (seconds /. 2.0)))

(* The seed only orders the work: kernels and pairs run in a seeded
   order in every pass. *)
let inputs seed =
  let rng = Overgen_util.Rng.create seed in
  let kernels = Overgen_util.Rng.shuffle rng Kernels.all in
  let pairs = Overgen_util.Rng.shuffle rng pairs in
  (kernels, pairs)

(* Simulated statistics of one pass: what must repeat exactly. *)
type pass_sig = {
  solo : (string * int) list;     (* kernel, cycles *)
  corun : Sim.multi_result list;  (* in the fixed pair order *)
}

let corun_cycles results =
  List.fold_left (fun acc (r : Sim.multi_result) -> acc + r.m_cycles) 0 results

(* What the traced run measures in one pass. *)
type layers = {
  mdfg_ms : (string * float) list;   (* per kernel *)
  sched_ms : (string * float) list;
  mdfg_bytes : float;                (* allocated over the pass *)
  sched_bytes : float;
  sim_s : float;
  run_s : float;                     (* the same kernels through Overgen.run *)
  layers_s : float;                  (* mdfg + scheduler + sim *)
  cycles : int;
  sim_words : float;
  firings : int;
  dispatches : int;
  l2_bytes : float;
  dram_bytes : float;
  tried : int;
  route_failures : int;
  stalls : int;
}

(* [f ()] and how far the default-registry counter [name] moved. *)
let counting name f =
  let c0 = counter name in
  let r = f () in
  (r, counter name - c0)

(* The untraced pass: [Overgen.run] per kernel, each followed by an
   [Overgen.compile] of the same kernel, so that the short compiles are
   spread over the pass rather than timed together at one moment.  A
   reference-clock reading follows every operation. *)
let solo_pass ov kernels solo_ms compile_ms =
  List.map
    (fun (k : Ir.kernel) ->
      let r, o = Refclock.time (fun () -> must k.name (Overgen.run ov k)) in
      solo_ms := (k.name, o) :: !solo_ms;
      Refclock.mark ();
      let _, oc = Refclock.time (fun () -> must k.name (Overgen.compile ov k)) in
      compile_ms := (k.name, oc) :: !compile_ms;
      Refclock.mark ();
      (k.name, (r.Overgen.schedules, r.cycles, o)))
    kernels

(* One kernel through the three public calls of [Overgen.run]. *)
type split = {
  name : string;
  scheds : Overgen_scheduler.Schedule.t list;
  sim : Sim.t;
  t_mdfg : float;
  t_sched : float;
  t_sim : float;
  b_mdfg : float;     (* bytes allocated *)
  b_sched : float;
  w_sim : float;      (* words allocated *)
}

(* The traced pass: [Overgen.run] split into its three public calls, each
   timed and traced, after an untraced [Overgen.run] of every kernel that
   times the whole for the accounting ratio. *)
let traced_pass (ov : Overgen.overlay) kernels =
  let sys = ov.design.sys in
  Obs.disable ();
  let runs = List.map (fun k -> time (fun () -> must "run" (Overgen.run ov k))) kernels in
  let run_s = sum (List.map snd runs) in
  Obs.enable ();
  let one (k : Ir.kernel) =
    Spans.with_span "kernel" ~attrs:[ ("kernel", k.name) ] @@ fun () ->
    let a0 = alloc_bytes () in
    let cc, t_mdfg =
      Spans.with_span "mdfg" (fun () -> time (fun () -> Compile.compile ~tuned:false k))
    in
    let a1 = alloc_bytes () in
    let c, t_sched =
      Spans.with_span "scheduler" (fun () ->
          time (fun () -> must k.name (Overgen.compile_variants ov cc)))
    in
    let a2 = alloc_bytes () in
    let w0 = alloc_words () in
    let sim, t_sim = Spans.with_span "sim" (fun () -> time (fun () -> Sim.run sys c.schedules)) in
    {
      name = k.name; scheds = c.schedules; sim; t_mdfg; t_sched; t_sim;
      b_mdfg = a1 -. a0; b_sched = a2 -. a1; w_sim = alloc_words () -. w0;
    }
  in
  let ((rs, stalls), route_failures), tried =
    counting "overgen_scheduler_variants_tried_total" (fun () ->
        counting "overgen_scheduler_routing_failures_total" (fun () ->
            counting "overgen_sim_stall_cycles_total" (fun () -> List.map one kernels)))
  in
  let sumf f = sum (List.map f rs) and sumi f = List.fold_left (fun a r -> a + f r) 0 rs in
  let regions f =
    sumi (fun r -> List.fold_left (fun a reg -> a + f reg) 0 r.sim.per_region)
  in
  let layers =
    {
      mdfg_ms = List.map (fun r -> (r.name, r.t_mdfg *. 1000.0)) rs;
      sched_ms = List.map (fun r -> (r.name, r.t_sched *. 1000.0)) rs;
      mdfg_bytes = sumf (fun r -> r.b_mdfg);
      sched_bytes = sumf (fun r -> r.b_sched);
      sim_s = sumf (fun r -> r.t_sim);
      run_s;
      layers_s = sumf (fun r -> r.t_mdfg +. r.t_sched +. r.t_sim);
      cycles = sumi (fun r -> r.sim.total_cycles);
      sim_words = sumf (fun r -> r.w_sim);
      firings = regions (fun (reg : Sim.region_result) -> reg.firings);
      dispatches = regions (fun (reg : Sim.region_result) -> reg.dispatches);
      l2_bytes = sumf (fun r -> r.sim.l2_bytes);
      dram_bytes = sumf (fun r -> r.sim.dram_bytes);
      tried;
      route_failures;
      stalls;
    }
  in
  List.iter2
    (fun ((whole : Overgen.report), _) r ->
      require "traced run"
        (Checks.identical ~what:(r.name ^ ": cycles of Overgen.run and of its three calls")
           whole.cycles r.sim.total_cycles))
    runs rs;
  ( List.map
      (fun r ->
        (r.name, (r.scheds, r.sim.total_cycles, Refclock.raw (r.t_mdfg +. r.t_sched +. r.t_sim))))
      rs,
    layers )

(* Checks on the outputs of one pass, made after the timed loop. *)
let check_pass (ov : Overgen.overlay) kernels scheds (sig_ : pass_sig) =
  let sys = ov.design.sys in
  List.iter
    (fun (k : Ir.kernel) ->
      let name = k.name in
      let s = List.assoc name scheds in
      require ("schedule " ^ name) (Checks.schedules_valid sys s);
      require ("functional " ^ name) (Overgen.verify_functional k);
      let sim = Sim.run sys s in
      require ("cycles " ^ name)
        (Checks.identical ~what:(name ^ ": Sim.run and Overgen.run cycles")
           sim.total_cycles (List.assoc name sig_.solo));
      require ("II bound " ^ name) (Checks.cycles_cover_firings ~kernel:name sim s);
      require ("estimate " ^ name)
        (Checks.near_estimate ~kernel:name ~sim_cycles:sim.total_cycles
           ~est_cycles:(Perf.app sys s).total_cycles))
    kernels;
  List.iter
    (fun r -> require "co-run" (Checks.corun_no_faster ~solo_cycles:sig_.solo r))
    sig_.corun

let run ~seed ~seconds ~traced =
  let kernels, pairs = inputs seed in
  let model, train_s, train_alloc = train_model () in
  let ov, general_s =
    time (fun () -> must "general overlay" (Overgen.general ~model Kernels.all))
  in
  let sys = ov.design.sys in
  let setup_s = now () -. !origin in
  let solo_ms = ref [] and compile_ms = ref [] and pass_ops = ref [] in
  let passes = ref [] and traced_passes = ref [] in
  (* per pass, traced run only: co-run seconds, cycles, allocated words *)
  let coruns = ref [] in
  let last_scheds = ref [] in
  Refclock.reset ();
  Refclock.mark ();
  (* the measured work; with ticks on, long operations get reference
     readings inside them *)
  let measure () =
    while List.length !passes < work_units seconds do
      let solo =
        if traced then begin
          let solo, layers = traced_pass ov kernels in
          traced_passes := layers :: !traced_passes;
          solo
        end
        else solo_pass ov kernels solo_ms compile_ms
      in
      let scheds = List.map (fun (n, (s, _, _)) -> (n, s)) solo in
      let w0 = alloc_words () in
      let co, co_ops =
        List.split
          (List.map
             (fun (a, b) ->
               let r, o =
                 Spans.with_span "corun" ~attrs:[ ("pair", a ^ "+" ^ b) ] @@ fun () ->
                 Refclock.time (fun () ->
                     Sim.run_multi sys
                       [ (List.assoc a scheds, tiles_per_tenant); (List.assoc b scheds, tiles_per_tenant) ])
               in
               if not traced then Refclock.mark ();
               (r, o))
             pairs)
      in
      let co_words = alloc_words () -. w0 in
      let co_s = sum (List.map (fun (o : Refclock.op) -> o.s) co_ops) in
      (* two tenants finish with each co-run *)
      let ops = List.map (fun (_, (_, _, o)) -> (1, o)) solo @ List.map (fun o -> (2, o)) co_ops in
      pass_ops := ops :: !pass_ops;
      Printf.printf "pass %d: %.3f s in solo runs and co-runs\n%!" (List.length !passes)
        (sum (List.map (fun (_, (o : Refclock.op)) -> o.s) ops));
      coruns := (co_s, float_of_int (corun_cycles co), co_words) :: !coruns;
      (* co-run results are compared in a fixed pair order *)
      let co = List.map snd (List.sort compare (List.combine pairs co)) in
      passes :=
        { solo = List.sort compare (List.map (fun (n, (_, c, _)) -> (n, c)) solo); corun = co }
        :: !passes;
      last_scheds := scheds
    done
  in
  if traced then measure () else Refclock.with_ticks measure;
  (* memory of the workload itself, before the checks run *)
  let rss = peak_rss_mb () in
  Obs.disable ();
  let passes = List.rev !passes in
  let first = List.hd passes in
  List.iteri
    (fun i p ->
      require "repeat" (Checks.identical ~what:(Printf.sprintf "pass %d statistics" i) first p))
    passes;
  check_pass ov kernels !last_scheds first;
  let n_pass = List.length passes in
  Printf.printf "kernel-run: %d passes, %d solo runs, %d co-run tenants\n" n_pass
    (n_pass * List.length kernels) (n_pass * 2 * List.length pairs);
  let attempted = n_pass * (List.length kernels + (2 * List.length pairs)) in
  let metrics =
    if not traced then
      begin
        let units = Refclock.to_units () in
        (* tenants finished per unit of time, median over passes *)
        let rate conv =
          median
            (List.map
               (fun ops ->
                 float_of_int (List.fold_left (fun a (n, _) -> a + n) 0 ops)
                 /. sum (List.map (fun (_, o) -> conv o) ops))
               !pass_ops)
        in
        let typ conv xs = typical (List.map (fun (k, o) -> (k, conv o)) xs) in
        let ms (o : Refclock.op) = o.s *. 1000.0 in
        host_line ~ops_per_s:(rate (fun o -> o.s)) ~op_ms:(typ ms !solo_ms)
          ~cold_ms:(typ ms !compile_ms);
        [
          m "setup_s" "s" setup_s;
          m "peak_rss_mb" "MB" rss;
          m "ops_per_kref" "1/kref" (1000.0 *. rate units);
          m "op_p50_ref" "ref" (typ units !solo_ms);
          m "cold_p50_ref" "ref" (typ units !compile_ms);
          m "modeled_ipc" "IPC"
            (geomean
               (List.map
                  (fun (k : Ir.kernel) -> (Sim.run sys (List.assoc k.name !last_scheds)).sim_ipc)
                  kernels));
        ]
      end
    else begin
      let ls = !traced_passes in
      let med f = median (List.map f ls) and medi f = median (List.map (fun l -> float_of_int (f l)) ls) in
      let co_med f = median (List.map f !coruns) in
      let co_s = co_med (fun (s, _, _) -> s) and co_cyc = co_med (fun (_, c, _) -> c) in
      let co_bytes f = List.fold_left (fun a r -> a +. f r) 0.0 first.corun in
      Layers.metrics
        [
          ("mlp.train_s", train_s);
          ("mlp.train_alloc_mb", mb train_alloc);
          ("core.general_ms", general_s *. 1000.0);
          ("mdfg.compile_ms", typical (List.concat_map (fun l -> l.mdfg_ms) ls));
          ("mdfg.alloc_mb", mb (med (fun l -> l.mdfg_bytes)));
          ("scheduler.schedule_ms", typical (List.concat_map (fun l -> l.sched_ms) ls));
          ("scheduler.alloc_mb", mb (med (fun l -> l.sched_bytes)));
          ("scheduler.variants_tried", medi (fun l -> l.tried));
          ("scheduler.routing_failures", medi (fun l -> l.route_failures));
          ("core.layers_over_run", med (fun l -> l.layers_s) /. med (fun l -> l.run_s));
          ("sim.solo_ms", 1000.0 *. med (fun l -> l.sim_s));
          ("sim.corun_ms", 1000.0 *. co_s);
          ("sim.solo_cycles_per_s", medi (fun l -> l.cycles) /. med (fun l -> l.sim_s));
          ("sim.corun_cycles_per_s", co_cyc /. co_s);
          ("sim.solo_alloc_words_per_cycle", med (fun l -> l.sim_words /. float_of_int l.cycles));
          ("sim.corun_alloc_words_per_cycle", co_med (fun (_, c, w) -> w /. c));
          ( "sim.cycles",
            float_of_int (List.fold_left (fun a (_, c) -> a + c) 0 first.solo + corun_cycles first.corun) );
          ("sim.firings", medi (fun l -> l.firings));
          ("sim.dispatches", medi (fun l -> l.dispatches));
          ("sim.l2_mb", mb (med (fun l -> l.l2_bytes) +. co_bytes (fun r -> r.m_l2_bytes)));
          ("sim.dram_mb", mb (med (fun l -> l.dram_bytes) +. co_bytes (fun r -> r.m_dram_bytes)));
          ("sim.stall_cycles", medi (fun l -> l.stalls));
        ]
    end
  in
  { attempted; failed = 0; metrics }
