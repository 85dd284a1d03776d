(* Test of the benchmark's correctness checks: every check accepts a real
   output of the program and rejects a deliberately broken copy of it.
   Exits non-zero when any check fails either way. *)

open Overgen_workload
open Overgen_scheduler
open Overgen_adg
module Sim = Overgen_sim.Sim
module Dse = Overgen_dse.Dse
module Perf = Overgen_perf.Perf
module Device = Overgen_fpga.Device
module Res = Overgen_fpga.Res
module Wire = Overgen_net.Wire

let failures = ref 0

let expect name ~ok r =
  match (ok, r) with
  | true, Ok () | false, Error _ -> Printf.printf "ok    %s\n%!" name
  | true, Error e ->
    incr failures;
    Printf.printf "FAIL  %s: rejected a correct output: %s\n%!" name e
  | false, Ok () ->
    incr failures;
    Printf.printf "FAIL  %s: accepted a broken output\n%!" name

let get = function Ok x -> x | Error e -> failwith e

let model = Overgen.train_model ()

let ov = get (Overgen.general ~model Kernels.all)
let sys = ov.design.sys
let fir = Kernels.find "fir"
let fir_scheds = (get (Overgen.compile ov fir)).schedules

(* fir's first schedule with one instruction moved to a PE that lacks its
   operation; when every PE supports it, the PE loses the operation. *)
let misplaced () =
  let s = List.hd fir_scheds in
  let inst, op, dtype =
    List.find_map
      (fun (n : Overgen_mdfg.Dfg.node) ->
        match n.kind with
        | Inst { op; dtype; _ } when Schedule.Imap.mem n.id s.inst_pe -> Some (n.id, op, dtype)
        | _ -> None)
      (Overgen_mdfg.Dfg.nodes s.variant.dfg)
    |> Option.get
  in
  let lacking =
    List.find_opt
      (fun (_, (pe : Comp.pe)) -> not (Op.Cap.supports pe.caps op dtype))
      (Adg.pes sys.adg)
  in
  match lacking with
  | Some (pe, _) -> ({ s with inst_pe = Schedule.Imap.add inst pe s.inst_pe }, sys)
  | None ->
    let pe = Schedule.Imap.find inst s.inst_pe in
    let p =
      match Adg.comp_exn sys.adg pe with Comp.Pe p -> p | _ -> assert false
    in
    let stripped = Comp.Pe { p with caps = Op.Cap.remove (op, dtype) p.caps } in
    (s, { sys with adg = Adg.set_comp sys.adg pe stripped })

let () =
  (* kernel-run *)
  expect "schedule validates" ~ok:true (Checks.schedules_valid sys fir_scheds);
  (let s, sys' = misplaced () in
   expect "instruction on a PE lacking its op" ~ok:false (Checks.schedules_valid sys' [ s ]));
  let sim = Sim.run sys fir_scheds in
  expect "cycles cover firings x II" ~ok:true
    (Checks.cycles_cover_firings ~kernel:"fir" sim fir_scheds);
  expect "fewer cycles than firings x II" ~ok:false
    (Checks.cycles_cover_firings ~kernel:"fir"
       {
         sim with
         per_region =
           List.map (fun (r : Sim.region_result) -> { r with cycles = r.firings - 1 }) sim.per_region;
       }
       fir_scheds);
  let est = (Perf.app sys fir_scheds).total_cycles in
  expect "cycles near the estimate" ~ok:true
    (Checks.near_estimate ~kernel:"fir" ~sim_cycles:sim.total_cycles ~est_cycles:est);
  expect "cycles 3x the estimate" ~ok:false
    (Checks.near_estimate ~kernel:"fir" ~sim_cycles:(3 * int_of_float est) ~est_cycles:est);
  let mm_scheds = (get (Overgen.compile ov (Kernels.find "mm"))).schedules in
  let co = Sim.run_multi sys [ (fir_scheds, 2); (mm_scheds, 2) ] in
  let solo_cycles =
    [ ("fir", sim.total_cycles); ("mm", (Sim.run sys mm_scheds).total_cycles) ]
  in
  expect "co-run tenants no faster than solo" ~ok:true
    (Checks.corun_no_faster ~solo_cycles co);
  expect "co-run tenant finishing before its solo run" ~ok:false
    (Checks.corun_no_faster ~solo_cycles
       {
         co with
         tenants =
           List.map
             (fun (t : Sim.tenant_result) ->
               { t with t_cycles = List.assoc t.t_kernel solo_cycles - 1 })
             co.tenants;
       });
  expect "repeated statistics" ~ok:true (Checks.identical ~what:"sim" sim (Sim.run sys fir_scheds));
  expect "statistics that moved" ~ok:false
    (Checks.identical ~what:"sim" sim { sim with total_cycles = sim.total_cycles + 1 });
  (* dse: a short exploration, whose best design fits by construction *)
  let gen =
    Overgen.generate
      ~config:{ Dse.default_config with iterations = 10; islands = 1 }
      ~model (Kernels.of_suite Suite.Dsp)
  in
  let d = gen.design in
  expect "generated overlay's best above its trace" ~ok:true
    (Checks.objective_dominates_trace (Option.get gen.dse));
  expect "design fits the device" ~ok:true (Checks.design_fits ~device:Device.default d);
  expect "design over the device" ~ok:false
    (Checks.design_fits ~device:Device.default
       { d with predicted = Res.scale 100 (Device.usable Device.default) });
  expect "design schedules validate" ~ok:true (Checks.design_schedules_valid d);
  (let s, sys' = misplaced () in
   expect "design schedule on a PE lacking its op" ~ok:false
     (Checks.design_schedules_valid { d with sys = sys'; per_app = [ [ s ] ] }));
  expect "objective recomputes" ~ok:true (Checks.objective_recomputed d);
  expect "objective that does not recompute" ~ok:false
    (Checks.objective_recomputed { d with objective = d.objective *. 1.01 });
  let result trace =
    {
      Dse.best = d;
      trace;
      stats = { accepted = 0; invalid = 0; repaired = 0; incremental = 0; rescheduled = 0 };
      wall_seconds = 0.0;
      modeled_hours = 0.0;
    }
  in
  let point est_ipc = { Dse.island = 0; iter = 0; modeled_hours = 0.0; est_ipc } in
  expect "best above its trace" ~ok:true
    (Checks.objective_dominates_trace (result [ point (d.objective /. 2.0); point d.objective ]));
  expect "best below a trace point" ~ok:false
    (Checks.objective_dominates_trace (result [ point (d.objective *. 1.5) ]));
  (* serve *)
  let ok_resp id =
    Wire.Result { id; outcome = Ok fir_scheds; cache_hit = false; service_s = 0.001; shard = 0 }
  in
  expect "response for its id" ~ok:true (Checks.response_ok ~id:4 (ok_resp 4));
  expect "response for another id" ~ok:false (Checks.response_ok ~id:4 (ok_resp 5));
  expect "error response" ~ok:false
    (Checks.response_ok ~id:4
       (Wire.Result
          { id = 4; outcome = Error Wire.Queue_full; cache_hit = false; service_s = 0.0; shard = 0 }));
  expect "served schedules equal the in-process ones" ~ok:true
    (Checks.same_schedules ~what:"fir" ~expected_digest:(Checks.schedules_digest fir_scheds)
       ~got:(get (Overgen.compile ov fir)).schedules);
  expect "served schedule that differs" ~ok:false
    (Checks.same_schedules ~what:"fir" ~expected_digest:(Checks.schedules_digest fir_scheds)
       ~got:(List.map (fun (s : Schedule.t) -> { s with ii = s.ii + 1 }) fir_scheds));
  let keys = [ "a"; "b"; "a"; "c"; "b"; "a" ] in
  let flags = [ false; false; true; false; true; true ] in
  expect "cache flags by first occurrence" ~ok:true (Checks.hit_flags ~keys ~flags);
  expect "cache hit on a first occurrence" ~ok:false
    (Checks.hit_flags ~keys ~flags:(true :: List.tl flags));
  expect "cache miss on a repeat" ~ok:false
    (Checks.hit_flags ~keys ~flags:[ false; false; false; false; true; true ]);
  expect "server totals" ~ok:true (Checks.stats_totals ~keys ~hits:3 ~misses:3);
  expect "server totals off by one" ~ok:false (Checks.stats_totals ~keys ~hits:4 ~misses:2);
  if !failures > 0 then begin
    Printf.printf "%d check test(s) failed\n" !failures;
    exit 1
  end
