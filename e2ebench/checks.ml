(* The benchmark's correctness checks.  Each compares an output of the
   program with a separate computation or with a property the method must
   have, never with a stored copy of an earlier output, and answers
   [Error] with the reason when the output is wrong. *)

open Overgen_scheduler
module Sim = Overgen_sim.Sim
module Dse = Overgen_dse.Dse
module Perf = Overgen_perf.Perf
module Res = Overgen_fpga.Res
module Device = Overgen_fpga.Device
module Wire = Overgen_net.Wire

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let rec all f = function
  | [] -> Ok ()
  | x :: rest -> ( match f x with Ok () -> all f rest | Error _ as e -> e)

(* --- schedules --------------------------------------------------------- *)

let schedules_valid sys scheds =
  all
    (fun (s : Schedule.t) ->
      match Schedule.validate s sys with
      | Ok () -> Ok ()
      | Error e -> fail "%s/%s: %s" s.variant.kernel s.variant.region.rname e)
    scheds

(* A schedule's content in a canonical form: maps as sorted bindings and
   the variant by its content hash, so two schedules that mean the same
   mapping digest the same whatever their in-memory shape. *)
let schedule_digest (s : Schedule.t) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( Overgen_mdfg.Compile.hash_variant s.variant,
            Schedule.Imap.bindings s.inst_pe,
            Schedule.Imap.bindings s.port_map,
            s.array_engine,
            s.rec_streams,
            s.reg_streams,
            s.routes,
            (s.max_link_share, s.skew_penalty, s.ii) )
          []))

let schedules_digest scheds = String.concat "," (List.map schedule_digest scheds)

let same_schedules ~what ~expected_digest ~got =
  if schedules_digest got = expected_digest then Ok ()
  else fail "%s: served schedules differ from the in-process compile" what

(* --- simulation -------------------------------------------------------- *)

(* A tile fires at most once per II, so a region takes at least its
   per-tile firings times its schedule's II. *)
let cycles_cover_firings ~kernel (sim : Sim.t) (scheds : Schedule.t list) =
  if List.length sim.per_region <> List.length scheds then
    fail "%s: %d simulated regions for %d schedules" kernel
      (List.length sim.per_region) (List.length scheds)
  else
    all
      (fun ((r : Sim.region_result), (s : Schedule.t)) ->
        if r.cycles >= r.firings * s.ii then Ok ()
        else
          fail "%s/%s: %d cycles < %d firings x II %d" kernel r.rname r.cycles
            r.firings s.ii)
      (List.combine sim.per_region scheds)

(* The cycle simulator and the analytic bottleneck model describe the
   same machine; they may disagree, but not by more than 2x. *)
let near_estimate ~kernel ~sim_cycles ~est_cycles =
  let r = float_of_int sim_cycles /. est_cycles in
  if r >= 0.5 && r <= 2.0 then Ok ()
  else
    fail "%s: %d simulated cycles vs %.0f estimated (ratio %.2f)" kernel
      sim_cycles est_cycles r

(* A tenant on a share of the tiles, contending for the shared memory
   system, cannot finish before the same kernel alone on all tiles. *)
let corun_no_faster ~solo_cycles (m : Sim.multi_result) =
  all
    (fun (t : Sim.tenant_result) ->
      match List.assoc_opt t.t_kernel solo_cycles with
      | None -> fail "co-run tenant %s has no solo run" t.t_kernel
      | Some solo when t.t_cycles >= solo -> Ok ()
      | Some solo ->
        fail "co-run tenant %s finished at %d, before its solo %d" t.t_kernel
          t.t_cycles solo)
    m.tenants

let identical ~what a b = if a = b then Ok () else fail "%s differ" what

(* --- DSE --------------------------------------------------------------- *)

let design_fits ~device (d : Dse.design) =
  if Res.fits d.predicted ~within:(Device.usable device) then Ok ()
  else
    fail "predicted %s exceeds the usable device" (Res.to_string d.predicted)

let design_schedules_valid (d : Dse.design) =
  all (schedules_valid d.sys) d.per_app

let objective_recomputed (d : Dse.design) =
  let o = Perf.objective d.sys d.per_app in
  if o = d.objective then Ok ()
  else fail "objective %.17g, recomputed %.17g" d.objective o

let objective_dominates_trace (r : Dse.result) =
  all
    (fun (p : Dse.trace_point) ->
      if r.best.objective >= p.est_ipc then Ok ()
      else
        fail "best %.6f below trace point %.6f (island %d iter %d)"
          r.best.objective p.est_ipc p.island p.iter)
    r.trace

(* --- serving ----------------------------------------------------------- *)

let response_ok ~id (resp : Wire.resp_msg) =
  match resp with
  | Result { id = id'; outcome = Ok _; _ } when id' = id -> Ok ()
  | Result { id = id'; outcome = Ok _; _ } ->
    fail "request %d answered with id %d" id id'
  | Result { outcome = Error e; _ } ->
    fail "request %d: %s" id (Wire.wire_error_to_string e)
  | _ -> fail "request %d: not a compile result" id

(* The first request for a cache key misses; every later one hits. *)
let expected_hits keys =
  let seen = Hashtbl.create 64 in
  List.map
    (fun k ->
      let hit = Hashtbl.mem seen k in
      Hashtbl.replace seen k ();
      hit)
    keys

let hit_flags ~keys ~flags =
  let rec go i = function
    | [], [] -> Ok ()
    | e :: es, f :: fs ->
      if e = f then go (i + 1) (es, fs)
      else fail "request %d: cache_hit %b, first-occurrence rule says %b" i f e
    | _ -> fail "%d keys for %d flags" (List.length keys) (List.length flags)
  in
  go 0 (expected_hits keys, flags)

let stats_totals ~keys ~hits ~misses =
  let e = expected_hits keys in
  let eh = List.length (List.filter Fun.id e) in
  let em = List.length e - eh in
  if hits = eh && misses = em then Ok ()
  else fail "server counted %d hits / %d misses, expected %d / %d" hits misses eh em
