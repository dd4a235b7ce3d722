(* The four workloads.  Each one builds its inputs from the seed, sets up
   several times (reporting the median), then repeats its operation until
   the run length has elapsed, checks the outputs, and returns the
   end-to-end figures, the per-layer figures and its correctness gates.

   In a traced run the measured operations alternate untraced and traced
   (at least three, the first untraced): per-layer figures come from the
   spans of the traced ones, and the ratio of the traced median to the
   untraced one, leaving out the first operation and the warm-up it
   pays, is the tracing overhead.  End-to-end figures are only reported
   from untraced runs. *)

open Prete
open Prete_net
open Prete_optics
module Clock = Prete_util.Clock
module Rng = Prete_util.Rng
module Pool = Prete_exec.Pool
module Rt = Prete_rt.Runtime
module Sh = Prete_rt.Shard
module Sweep = Prete_rt.Sweep
module M = Prete_rt.Metrics
module Dfl = Prete_ml.Dfl
module Stream = Prete_rt.Stream
module Trace = Perfkit.Trace
module Stats = Perfkit.Stats

type ctx = {
  pool : Pool.t;
  domains : int;
  seed : int;
  seconds : float;
  traced : bool;
  tr : Trace.t;
}

type result = {
  setup_s : float;
  ops_per_s : float;
  op_s_p50 : float;
  delivered_share : float;
  attempted : int;
  failed : int;
  named : (string * float * string) list;
      (* The workload's own end-to-end figures, printed for people. *)
  layers : (string * float) list;
      (* Per-layer figures this workload exercises; the rest are idle. *)
  counts : (string * int) list;  (* Alarms, detours, cache hits, ... *)
  digests : (string * string) list;
  gates : (string * bool) list;
  cover_root : string;  (* The span whose children the coverage counts. *)
  overhead : float option;  (* Traced over untraced operation wall - 1. *)
  op_walls : float list;  (* Every measured operation, in order. *)
  steal : float;  (* Host steal share of CPU time while measuring. *)
  redone : int;  (* Operations run again for host steal. *)
}

let span ctx name f = Trace.with_span ctx.tr name f

let wall f =
  let t0 = Clock.now () in
  let r = f () in
  (r, Clock.elapsed_since t0)

let median_of l = Stats.median (Array.of_list l)

(* Set up at least [reps] times and for at least [min_s] seconds, so
   that a set-up of milliseconds is timed over more than one instant of
   the machine; the median wall, and the last set-up's value. *)
let setups ?(reps = 21) ?(min_s = 1.0) f =
  let t0 = Clock.now () in
  let rec go walls =
    let v, w = wall f in
    let walls = w :: walls in
    if List.length walls >= reps && Clock.elapsed_since t0 >= min_s then (median_of walls, v)
    else go walls
  in
  go []

type 'a op = { index : int; in_trace : bool; wall_s : float; value : 'a }

type measured = {
  steal_share : float;  (* Share of the machine's CPU time the host stole. *)
  redone : int;  (* Operations run again for host steal. *)
  gc_minor_words : float;
  gc_major : int;
  pool_busy_share : float;
  pool_inline_ratio : float;
  pool_steals : float;
}

(* The aggregate "cpu" line of /proc/stat: (steal, total) jiffies, or
   zeros where there is no such file. *)
let cpu_jiffies () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields ->
      let v = List.map int_of_string fields in
      ((match List.nth_opt v 7 with Some s -> s | None -> 0), List.fold_left ( + ) 0 v)
    | _ -> (0, 0))
  | None | (exception Sys_error _) -> (0, 0)

let steal_share (s0, t0) (s1, t1) =
  if t1 <= t0 then 0.0 else float_of_int (s1 - s0) /. float_of_int (t1 - t0)

(* An untraced operation during which the host stole more than
   [steal_limit] of the machine's CPU time timed the neighbours, not the
   program (on the development VM such bursts made operations two to
   three times slower): it is run again, at most [max_redo] times a run
   and only within the run length, so that a run of long operations
   does not grow by several of them.  Operation [i] is a pure function
   of [i], so a repeat does the same work. *)
let steal_limit = 0.05
let max_redo = 3

(* Repeat [f] until [ctx.seconds] have elapsed and at least [min_ops]
   operations ran, each inside a [root] span.  A traced run alternates
   whole cycles of [cycle] operations, so that a workload whose
   operation [i] does the work of slot [i mod cycle] has every slot
   timed both untraced and traced. *)
let measure (ctx : ctx) ~root ?(min_ops = 1) ?(cycle = 1) f =
  let min_ops = if ctx.traced then max min_ops (3 * cycle) else min_ops in
  Pool.reset_stats ctx.pool;
  let j0 = cpu_jiffies () in
  let gc0 = Gc.quick_stat () in
  let t0 = Clock.now () in
  let redone = ref 0 in
  let rec go i acc =
    let traced = ctx.traced && i / cycle mod 2 = 1 in
    Trace.set_enabled ctx.tr traced;
    (* Collect the garbage earlier operations left, untimed, so that each
       operation starts from the same heap and the peak memory does not
       grow with the number of operations a run holds. *)
    Gc.full_major ();
    let before = cpu_jiffies () in
    let value, wall_s = wall (fun () -> span ctx root (fun () -> f i)) in
    Trace.set_enabled ctx.tr false;
    if
      (not traced) && !redone < max_redo
      && Clock.elapsed_since t0 < ctx.seconds
      && steal_share before (cpu_jiffies ()) > steal_limit
    then (incr redone; go i acc)
    else begin
      let acc = { index = i; in_trace = traced; wall_s; value } :: acc in
      if i + 1 < min_ops || Clock.elapsed_since t0 < ctx.seconds then go (i + 1) acc
      else List.rev acc
    end
  in
  let ops = go 0 [] in
  let total = Clock.elapsed_since t0 in
  let gc1 = Gc.quick_stat () in
  let j1 = cpu_jiffies () in
  let ps = Pool.stats ctx.pool in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  ( ops,
    {
      steal_share = steal_share j0 j1;
      redone = !redone;
      gc_minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      gc_major = gc1.Gc.major_collections - gc0.Gc.major_collections;
      pool_busy_share =
        Prete_exec.Pool_stats.busy_total ps
        /. (float_of_int ps.Prete_exec.Pool_stats.domains *. Float.max total 1e-9);
      pool_inline_ratio =
        ratio ps.Prete_exec.Pool_stats.inline_jobs ps.Prete_exec.Pool_stats.jobs;
      pool_steals = float_of_int ps.Prete_exec.Pool_stats.steals;
    } )

let common_layers m =
  [
    ("pool.busy_share", m.pool_busy_share);
    ("pool.inline_ratio", m.pool_inline_ratio);
    ("pool.steals", m.pool_steals);
    ("gc.minor_mwords", m.gc_minor_words /. 1e6);
    ("gc.major_collections", float_of_int m.gc_major);
  ]

(* Traced over untraced operation wall, minus 1, leaving out the first
   cycle, which pays the warm-up: the medians of each slot of the cycle,
   summed over the slots. *)
let overhead ?(cycle = 1) ops =
  let median_wall t slot =
    match
      List.filter_map
        (fun o ->
          if o.index >= cycle && o.in_trace = t && o.index mod cycle = slot then Some o.wall_s
          else None)
        ops
    with
    | [] -> None
    | l -> Some (median_of l)
  in
  let sum t =
    List.fold_left
      (fun acc slot -> Option.bind acc (fun a -> Option.map (( +. ) a) (median_wall t slot)))
      (Some 0.0) (List.init cycle Fun.id)
  in
  match (sum true, sum false) with
  | Some tw, Some uw -> Some ((tw /. uw) -. 1.0)
  | _ -> None

(* Per-span-name durations and self times of the spans recorded so far. *)
let span_durations ctx name =
  List.filter_map
    (fun s -> if s.Trace.name = name then Some (Trace.duration s) else None)
    (Trace.spans ctx.tr)

let span_selves ctx name =
  List.filter_map
    (fun (s, self) -> if s.Trace.name = name then Some self else None)
    (Trace.self_times (Trace.spans ctx.tr))

(* Run a decomposition leg with span recording on, so its spans land in
   the trace file next to the traced operations'. *)
let leg ctx f =
  Trace.set_enabled ctx.tr true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled ctx.tr false) f

let p50_or_zero = function [] -> 0.0 | l -> median_of l
let ratio a b = if b <= 0.0 then 0.0 else a /. b
let hexdigest s = Digest.to_hex (Digest.string s)
let all_same = function [] -> true | x :: rest -> List.for_all (String.equal x) rest

(* ------------------------------------------------------------------ *)
(* fleet_stream: every wan26 fiber streams 1 Hz telemetry through the
   sharded runtime.  Ingest and detection dominate; TE compute is small. *)

let fleet_epochs = 96
let fleet_shards = 4

(* Sample paths per run: how much evaluation and reaction work a
   96-epoch path holds depends on its degradation events (one path took
   40% longer than another drawn from the same seed), so every run
   streams several paths drawn from its seed, and times each path by
   its median wall, so that a run's mix of paths does not depend on how
   many operations fit in it. *)
let fleet_paths = 6

(* Decomposition leg: time Online ingest, Detector stepping and
   Predictor serving on seeded wan26 fiber traces (one in four fibers
   degrading), outside the runtime, so each gets a per-sample cost. *)
let stream_leg ctx (env : Availability.env) =
  let topo = env.Availability.ts.Tunnels.topo in
  let n = Topology.num_fibers topo in
  let rng = Rng.create (ctx.seed lxor 0x5eed) in
  let imp = Stream.default_impairments in
  let horizon = imp.Stream.max_delay in
  let len = Rt.Internal.epoch_len in
  let arrivals =
    Array.init n (fun fb ->
        let baseline = Telemetry.baseline_loss topo fb in
        let seed = Rng.int rng 1_000_000 in
        let trace =
          if fb mod 4 = 0 then
            Telemetry.synthesize ~seed ~baseline ~healthy_s:300
              ~degradation:env.Availability.degr_events.(fb) ~total_s:len ()
          else Telemetry.synthesize ~seed ~baseline ~healthy_s:len ~total_s:len ()
        in
        let a = Array.of_list (Stream.schedule rng imp trace) in
        Array.stable_sort (fun x y -> compare x.Stream.a_tick y.Stream.a_tick) a;
        a)
  in
  let offered = Array.fold_left (fun acc a -> acc + Array.length a) 0 arrivals in
  let ingest () =
    Array.map
      (fun a ->
        let ing = Prete_rt.Online.ingest_create ~horizon () in
        let out = ref [] and k = ref 0 in
        for now = 0 to len - 1 + horizon do
          while !k < Array.length a && a.(!k).Stream.a_tick <= now do
            Prete_rt.Online.offer ing ~t:a.(!k).Stream.a_t ~v:a.(!k).Stream.a_v;
            incr k
          done;
          out := List.rev_append (Prete_rt.Online.drain ing ~now) !out
        done;
        out := List.rev_append (Prete_rt.Online.flush ing ~upto:(len - 1)) !out;
        Array.of_list (List.rev !out))
      arrivals
  in
  let detect drained =
    Array.iteri
      (fun fb samples ->
        let d =
          Prete_rt.Detector.create ~baseline:(Telemetry.baseline_loss topo fb) ()
        in
        Array.iter (fun (t, v) -> ignore (Prete_rt.Detector.step d ~at:t ~v)) samples)
      drained
  in
  let server =
    Prete_rt.Predictor.create
      ~fallback:(Prete_rt.Predictor.prior env.Availability.model)
      (Hazard.eval ~num_fibers:n)
  in
  let calls = 20_000 in
  let predict () =
    for i = 0 to calls - 1 do
      ignore (Prete_rt.Predictor.predict server env.Availability.degr_events.(i mod n))
    done
  in
  let rounds = 5 in
  let ing_w = ref [] and det_w = ref [] and pred_w = ref [] and drained_n = ref 0 in
  for _ = 1 to rounds do
    let drained, w = wall (fun () -> span ctx "online.offer_drain" ingest) in
    ing_w := w :: !ing_w;
    drained_n := Array.fold_left (fun acc a -> acc + Array.length a) 0 drained;
    let (), w = wall (fun () -> span ctx "detector.step" (fun () -> detect drained)) in
    det_w := w :: !det_w;
    let (), w = wall (fun () -> span ctx "predictor.predict" predict) in
    pred_w := w :: !pred_w
  done;
  [
    ("online.ns_per_sample", median_of !ing_w /. float_of_int offered *. 1e9);
    ("detector.ns_per_sample", median_of !det_w /. float_of_int !drained_n *. 1e9);
    ("predictor.us_per_call", median_of !pred_w /. float_of_int calls *. 1e6);
  ]

let fleet_stream ctx =
  let cfg path =
    {
      Rt.default_config with
      Rt.topology = "wan26";
      epochs = fleet_epochs;
      seed = (ctx.seed * fleet_paths) + path;
      shards = fleet_shards;
    }
  in
  (* What every Shard.run builds before streaming: the env (tunnels,
     traffic, fiber model) and the regional partition. *)
  let setup_s, env =
    setups (fun () ->
        let topo = Topology.by_name (cfg 0).Rt.topology in
        let env = Availability.make_env topo in
        ignore (Sh.partition topo ~shards:fleet_shards ~seed:(cfg 0).Rt.seed);
        env)
  in
  (* An untimed run of the first path pays the warm-up, and its
     deterministic core is compared with the measured runs'. *)
  let warm = Sh.run ~pool:ctx.pool (cfg 0) in
  let ops, m =
    measure ctx ~root:"fleet_stream.op" ~min_ops:fleet_paths (fun i ->
        span ctx "shard.run" (fun () -> Sh.run ~pool:ctx.pool (cfg (i mod fleet_paths))))
  in
  let rs = List.map (fun o -> o.value) ops in
  let r0 = List.hd rs in
  let samples r = Array.fold_left (fun acc s -> acc + s.Sh.ss_samples) 0 r.Sh.s_shards in
  let cores_of path =
    (if path = 0 then [ warm ] else [])
    @ List.filteri (fun i _ -> i mod fleet_paths = path) rs
    |> List.map Sh.deterministic_core
  in
  let te r = Option.value ~default:0.0 (List.assoc_opt "te_compute" r.Sh.s_solver.Prete_lp.Solver_stats.walls) in
  let per_op f = median_of (List.map (fun o -> f o.value o.wall_s) ops) in
  let busy r = Array.fold_left (fun acc s -> acc +. s.Sh.ss_busy_s) 0.0 r.Sh.s_shards in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 rs in
  let hits r = M.counter r.Sh.s_metrics "plan_cache_hits" in
  let lookups r = hits r + M.counter r.Sh.s_metrics "plan_cache_misses" in
  let layers =
    if not ctx.traced then []
    else
      [
        ("shard.busy_s", per_op (fun r _ -> busy r));
        ("shard.samples_per_busy_s", per_op (fun r _ -> Sh.aggregate_rate r));
        ("shard.slowest_ticks_per_s", per_op (fun r _ -> Sh.tick_rate r));
        (* Shards run concurrently on the pool's lanes, so their summed
           busy time is spread over [domains] lanes of the wall. *)
        ( "shard.outside_loops_s",
          per_op (fun r w -> w -. (busy r /. float_of_int ctx.domains) -. te r) );
        ("coalescer.batches", per_op (fun r _ -> float_of_int r.Sh.s_batches));
        ("coalescer.deferred", per_op (fun r _ -> float_of_int r.Sh.s_deferred));
        ("coalescer.shed", per_op (fun r _ -> float_of_int r.Sh.s_shed));
        ("controller.te_compute_s", per_op (fun r _ -> te r));
        ("controller.cache_hit_ratio", ratio (float_of_int (total hits)) (float_of_int (total lookups)));
      ]
      @ leg ctx (fun () -> stream_leg ctx env) @ common_layers m
  in
  let path_s =
    List.init fleet_paths (fun p ->
        median_of
          (List.filter_map (fun o -> if o.index mod fleet_paths = p then Some o.wall_s else None) ops))
  in
  let path_samples = List.init fleet_paths (fun p -> samples (List.nth rs p)) in
  let pooled_rate =
    float_of_int (List.fold_left ( + ) 0 path_samples) /. List.fold_left ( +. ) 0.0 path_s
  in
  let paths = List.init (min fleet_paths (List.length rs)) Fun.id in
  {
    setup_s;
    ops_per_s = pooled_rate;
    op_s_p50 = median_of path_s;
    delivered_share = per_op (fun r _ -> r.Sh.s_avail_stream);
    attempted = total (fun r -> r.Sh.s_alarms);
    failed = total (fun r -> r.Sh.s_shed);
    named =
      [
        ("stream_samples_per_s", pooled_rate, "samples/s");
        ("shard_run_s_p50", median_of path_s, "s");
        ("avail_stream", per_op (fun r _ -> r.Sh.s_avail_stream), "share");
      ];
    layers;
    counts =
      [
        ("fibers", Array.length r0.Sh.s_partition.Sh.pt_region_of);
        ("flows", r0.Sh.s_flows);
        ("epochs_per_run", r0.Sh.s_epochs);
        ("runs", List.length rs);
        ("samples", total samples);
        ("alarms", total (fun r -> r.Sh.s_alarms));
        ("batches", total (fun r -> r.Sh.s_batches));
        ("shed", total (fun r -> r.Sh.s_shed));
        ("plan_cache_hits", total hits);
        ("plan_cache_lookups", total lookups);
        (* Shard.run's Solver_stats count no solves or pivots even though
           its TE compute wall is above zero; printed so the gap shows. *)
        ("solver_solves", total (fun r -> r.Sh.s_solver.Prete_lp.Solver_stats.solves));
        ("solver_pivots", total (fun r -> r.Sh.s_solver.Prete_lp.Solver_stats.pivots));
      ];
    digests =
      List.map
        (fun p -> (Printf.sprintf "deterministic_core.path%d" p, hexdigest (List.hd (cores_of p))))
        paths;
    gates =
      [
        ("Shard.accounted on every run", List.for_all Sh.accounted (warm :: rs));
        ("deterministic_core identical across runs of a path", List.for_all (fun p -> all_same (cores_of p)) paths);
      ];
    cover_root = "fleet_stream.op";
    overhead = overhead ops;
    op_walls = List.map (fun o -> o.wall_s) ops;
    steal = m.steal_share;
    redone = m.redone;
  }

(* ------------------------------------------------------------------ *)
(* reaction: a closed loop of one controller answering a seeded alarm
   sequence on TWAN, alarm to installed plan, with one ladder and one
   plan cache carried across the sequence as the runtimes carry them. *)

let reaction_alarms = 300
let reaction_levels = 5

(* The alarm sequence of a pass.  Per-alarm latency is bimodal, with the
   median between the modes, so a sequence whose mix of fibers (which
   differ in how hard their reactive LP is), demand levels or cache hits
   changed with the seed moved the median by up to 20%.  Every fiber
   therefore alarms once at each of [reaction_levels] demand levels
   spread over the diurnal range — [hours] holds one hour per distinct
   demand matrix, in order of demand — and the remaining alarms repeat
   earlier ones, each a plan-cache hit.  The seed picks the repeats and
   the order. *)
let alarm_sequence ~seed ~fibers ~hours =
  let rng = Rng.create seed in
  let levels =
    Array.init reaction_levels (fun i ->
        hours.(i * (Array.length hours - 1) / (reaction_levels - 1)))
  in
  let distinct = fibers * reaction_levels in
  if distinct > reaction_alarms then invalid_arg "alarm_sequence: more distinct alarms than alarms";
  let pairs = Array.init distinct (fun k -> (k mod fibers, levels.(k / fibers))) in
  let alarms =
    Array.append pairs
      (Array.init (reaction_alarms - distinct) (fun _ -> pairs.(Rng.int rng distinct)))
  in
  for k = reaction_alarms - 1 downto 1 do
    let j = Rng.int rng (k + 1) in
    let a = alarms.(k) in
    alarms.(k) <- alarms.(j);
    alarms.(j) <- a
  done;
  alarms
let reaction_scale = 2.0

(* Share of the demand that a plan's allocation carries. *)
let served_share (plan : Availability.plan) demands =
  let ts = plan.Availability.p_ts in
  let served = ref 0.0 and total = ref 0.0 in
  Array.iteri
    (fun f d ->
      let got =
        List.fold_left
          (fun acc t -> if t < Array.length plan.p_alloc then acc +. plan.p_alloc.(t) else acc)
          0.0 ts.Tunnels.of_flow.(f)
      in
      served := !served +. Float.min d got;
      total := !total +. d)
    demands;
  if !total <= 0.0 then 1.0 else !served /. !total

(* What a pass keeps of one alarm.  Its plan is checked and digested
   when the pass ends, so that a run holds one pass's plans at a time
   and its peak memory does not grow with the number of passes. *)
type alarm_out = {
  a_fiber : int;
  a_hour : int;
  a_latency : float;
  a_served : float;  (* Share of the alarm's demand the plan carries. *)
  a_feasible : bool;  (* Resilience.plan_feasible against its own tunnel set. *)
  a_digest : string;
  a_solved : (Resilience.rung * Resilience.cause option * bool) option;
      (* Rung, cause and degraded of the outcome; [None] on a cache hit. *)
}

let reaction ctx =
  let setup_s, (env, scheme, alarms, demands) =
    setups (fun () ->
        let topo = Topology.by_name "TWAN" in
        let env = Availability.make_env topo in
        let n = Topology.num_fibers topo in
        let scheme = Schemes.prete_default ~predictor:(Hazard.eval ~num_fibers:n) () in
        let demands =
          Array.init 24 (fun h ->
              Traffic.demand env.Availability.traffic ~scale:reaction_scale ~epoch:h)
        in
        let total h = Array.fold_left ( +. ) 0.0 demands.(h) in
        let hours =
          List.init 24 Fun.id
          |> List.filter (fun h ->
                 not (List.exists (fun h' -> demands.(h') = demands.(h)) (List.init h Fun.id)))
          |> List.sort (fun a b -> Float.compare (total a) (total b))
        in
        let alarms = alarm_sequence ~seed:ctx.seed ~fibers:n ~hours:(Array.of_list hours) in
        (env, scheme, alarms, demands))
  in
  let ts = env.Availability.ts in
  let probs = env.Availability.model.Fiber_model.p_cut in
  let pass _ =
    let primary_calls = ref 0 and warm_calls = ref 0 in
    let ladder = Resilience.create () in
    let cache = Controller.cache ~capacity:4096 () in
    let solver = Prete_lp.Solver_stats.create () in
    let solved =
      Array.map
        (fun (fb, hour) ->
          let demands = demands.(hour) in
          let t0 = Clock.now () in
          let plan, outcome =
            span ctx "reaction.alarm" (fun () ->
                let upd =
                  span ctx "tunnel_update.react" (fun () ->
                      Tunnel_update.react ts ~degraded_fiber:fb ())
                in
                let key = Controller.plan_key ~ts ~demands ~probs ~salt:[ 2000 + fb ] () in
                match span ctx "controller.cache_find" (fun () -> Controller.cache_find cache key) with
                | Some p -> (p, None)
                | None ->
                  let primary ~warm () =
                    incr primary_calls;
                    if warm <> None then incr warm_calls;
                    span ctx "te_plan.plan_alloc_warm" (fun () ->
                        Availability.Internal.plan_alloc_warm ?warm env scheme ~demands
                          ~degraded:(Some fb))
                  in
                  let outcome, _report =
                    span ctx "controller.run" (fun () ->
                        Controller.run ~solver_stats:solver
                          ~infer:(fun () -> ())
                          ~regen:(fun () -> ())
                          ~te:(fun () ->
                            span ctx "resilience.plan_epoch" (fun () ->
                                Resilience.plan_epoch ladder ~ts ~demands ~primary ()))
                          ~n_new_tunnels:(Tunnel_update.num_new upd) ())
                  in
                  span ctx "controller.cache_store" (fun () ->
                      Controller.cache_store cache key
                        ~degraded:(Resilience.degraded outcome)
                        outcome.Resilience.plan);
                  (outcome.Resilience.plan, Some outcome))
          in
          (fb, hour, demands, Clock.elapsed_since t0, plan, outcome))
        alarms
    in
    let outs =
      Array.map
        (fun (fb, hour, demands, latency, plan, outcome) ->
          {
            a_fiber = fb;
            a_hour = hour;
            a_latency = latency;
            a_served = served_share plan demands;
            a_feasible = Resilience.plan_feasible plan.Availability.p_ts plan;
            a_digest =
              Printf.sprintf "%d:%s" fb
                (String.concat ","
                   (Array.to_list (Array.map (Printf.sprintf "%h") plan.Availability.p_alloc)));
            a_solved =
              Option.map
                (fun (o : Resilience.outcome) ->
                  (o.Resilience.rung, o.Resilience.cause, Resilience.degraded o))
                outcome;
          })
        solved
    in
    let h, ms = Controller.cache_stats cache in
    let te_s = Option.value ~default:0.0 (List.assoc_opt "te_compute" solver.Prete_lp.Solver_stats.walls) in
    (outs, (!primary_calls, !warm_calls, h, h + ms, te_s))
  in
  let ops, m = measure ctx ~root:"reaction.pass" pass in
  let all = List.concat_map (fun o -> Array.to_list (fst o.value)) ops in
  let sum_stat g = List.fold_left (fun acc o -> acc +. g (snd o.value)) 0.0 ops in
  let stat_ratio num den = ratio (sum_stat num) (sum_stat den) in
  let lat = Array.of_list (List.map (fun a -> a.a_latency) all) in
  let passes = List.length ops in
  let outcomes = List.filter_map (fun a -> a.a_solved) all in
  let rung r = List.length (List.filter (fun (rg, _, _) -> rg = r) outcomes) in
  let degraded = List.length (List.filter (fun (_, _, d) -> d) outcomes) in
  let pass_digest o =
    hexdigest (String.concat ";" (Array.to_list (Array.map (fun a -> a.a_digest) (fst o.value))))
  in
  Array.iter
    (fun a ->
      Option.iter
        (fun (rg, cause, d) ->
          if d then
            Printf.printf "degraded alarm: fiber %d hour %d rung %s cause %s\n" a.a_fiber a.a_hour
              (Resilience.rung_name rg)
              (Option.fold ~none:"none" ~some:Resilience.cause_name cause))
        a.a_solved)
    (fst (List.hd ops).value);
  let p95 = Stats.percentile_if_resolved lat 95.0 in
  let tail = Stats.tail lat in
  let plan_spans = Array.of_list (span_durations ctx "te_plan.plan_alloc_warm") in
  let per_pass x = float_of_int x /. float_of_int passes in
  let layers =
    if not ctx.traced then []
    else
      [
        ("tunnel_update.s_p50", p50_or_zero (span_durations ctx "tunnel_update.react"));
        ("resilience.self_s_p50", p50_or_zero (span_selves ctx "resilience.plan_epoch"));
        ( "resilience.warm_ratio",
          stat_ratio (fun (_, w, _, _, _) -> float_of_int w) (fun (p, _, _, _, _) -> float_of_int p) );
        ("resilience.rung.primary", per_pass (rung Resilience.Primary));
        ("resilience.rung.cached", per_pass (rung Resilience.Cached));
        ("resilience.rung.equal_split", per_pass (rung Resilience.Equal_split));
        ("te_plan.s_p50", p50_or_zero (Array.to_list plan_spans));
        ( "te_plan.s_p95",
          match Stats.percentile_if_resolved plan_spans 95.0 with
          | Some v -> v
          | None ->
            Printf.printf "te_plan.s_p95: %d plans, fewer than the 200 it needs\n"
              (Array.length plan_spans);
            0.0 );
        ("controller.te_compute_s", sum_stat (fun (_, _, _, _, t) -> t) /. float_of_int passes);
        ( "controller.cache_hit_ratio",
          stat_ratio (fun (_, _, h, _, _) -> float_of_int h) (fun (_, _, _, l, _) -> float_of_int l) );
      ]
      @ common_layers m
  in
  let alarms_n = List.length all in
  {
    setup_s;
    ops_per_s = float_of_int alarms_n /. Array.fold_left ( +. ) 0.0 lat;
    op_s_p50 = Stats.median lat;
    delivered_share = median_of (List.map (fun a -> a.a_served) all);
    attempted = alarms_n;
    failed = degraded;
    named =
      ("reaction_s_p50", Stats.median lat, "s")
      :: (match tail with
         | Some (p, v) -> [ (Printf.sprintf "reaction_s_p%g" p, v, "s") ]
         | None -> []);
    layers;
    counts =
      [
        ("fibers", Topology.num_fibers ts.Tunnels.topo);
        ("passes", passes);
        ("alarms", alarms_n);
        ("cache_hits", alarms_n - List.length outcomes);
        ("plans_solved", List.length outcomes);
        ("degraded", degraded);
        ("te_plan_spans", Array.length plan_spans);
      ];
    digests = [ ("plans", pass_digest (List.hd ops)) ];
    gates =
      [
        ( "every plan passes Resilience.plan_feasible",
          List.for_all (fun a -> a.a_feasible) all );
        ("at least 200 alarms, so p95 has 10 samples beyond it", p95 <> None);
      ];
    cover_root = "reaction.alarm";
    overhead = overhead ops;
    op_walls = List.map (fun o -> o.wall_s) ops;
    steal = m.steal_share;
    redone = m.redone;
  }

(* ------------------------------------------------------------------ *)
(* oracle: the decision-focused TE-loss oracle on grid3 at scale 2.  The
   LP structure is fixed; only the objective side changes between calls,
   each of which re-solves warm from the anchored bases. *)

let oracle_scale = 2.0
let oracle_radius = 0.05

(* Decomposition leg: the oracle's anchored warm path, rebuilt outside
   it — a cold availability call captures per-state bases; then one warm
   availability call, and each state's plan alone from its anchor. *)
let oracle_leg ctx (env : Availability.env) probe =
  let predictor f = Float.max 1e-4 (Float.min 0.9999 probe.(f.Hazard.fiber)) in
  let scheme = Schemes.prete_default ~predictor () in
  let states = Availability.Internal.degradation_states env in
  let bases = Array.make (Array.length states) None in
  ignore (Availability.availability ~pool:ctx.pool ~bases env scheme ~scale:oracle_scale);
  let anchor = Array.copy bases in
  let (_ : float), call_s =
    wall (fun () ->
        span ctx "availability.availability" (fun () ->
            Availability.availability ~pool:ctx.pool ~bases env scheme ~scale:oracle_scale))
  in
  let demands =
    Traffic.demand env.Availability.traffic ~scale:oracle_scale ~epoch:env.Availability.epoch
  in
  let state_s =
    Array.mapi
      (fun i (degraded, _) ->
        snd
          (wall (fun () ->
               span ctx "te_plan.state" (fun () ->
                   Availability.Internal.plan_alloc_warm ?warm:anchor.(i) env scheme
                     ~demands ~degraded))))
      states
  in
  [
    ("availability.call_s_p50", call_s);
    ("te_plan.state_s_p50", Stats.median state_s);
    ("te_plan.share", Array.fold_left ( +. ) 0.0 state_s /. call_s);
  ]

let oracle ctx =
  let anchor_s = ref [] in
  let setup_s, (env, oracle) =
    setups ~reps:3 (fun () ->
        let env = Availability.make_env (Topology.by_name "grid3") in
        let oracle = Dfl.Oracle.create ~pool:ctx.pool ~scale:oracle_scale env in
        let (_ : float), w =
          wall (fun () -> Dfl.Oracle.availability oracle env.Availability.true_hazard)
        in
        anchor_s := w :: !anchor_s;
        (env, oracle))
  in
  (* Probe [i] comes from the [i]th substream of the seed, so it depends
     on the seed and [i] only. *)
  let probe i =
    let master = Rng.create ctx.seed in
    for _ = 1 to i do
      ignore (Rng.split master)
    done;
    let rng = Rng.split master in
    Array.map
      (fun h -> h +. (oracle_radius *. if Rng.bool rng then 1.0 else -1.0))
      env.Availability.true_hazard
  in
  let ops, m =
    measure ctx ~root:"oracle.call" (fun i ->
        let p = probe i in
        (p, span ctx "dfl.oracle.availability" (fun () -> Dfl.Oracle.availability oracle p)))
  in
  let avails = List.map (fun o -> snd o.value) ops in
  let ok a = Float.is_finite a && a >= 0.0 && a <= 1.0 in
  let first_probe, first = (List.hd ops).value in
  let again = Dfl.Oracle.availability oracle first_probe in
  let walls = List.map (fun o -> o.wall_s) ops in
  let layers =
    if not ctx.traced then []
    else
      (("oracle.anchor_s", median_of !anchor_s) :: leg ctx (fun () -> oracle_leg ctx env first_probe))
      @ common_layers m
  in
  let calls = List.length ops in
  let rate = float_of_int calls /. List.fold_left ( +. ) 0.0 walls in
  let bits a = Printf.sprintf "%Lx" (Int64.bits_of_float a) in
  {
    setup_s;
    ops_per_s = rate;
    op_s_p50 = median_of walls;
    delivered_share = median_of avails;
    attempted = calls;
    failed = List.length (List.filter (fun a -> not (ok a)) avails);
    named =
      [
        ("oracle_calls_per_s", rate, "1/s");
        ("oracle_availability", List.fold_left ( +. ) 0.0 avails /. float_of_int calls, "share");
        ("oracle_anchor_s", median_of !anchor_s, "s");
      ];
    layers;
    counts = [ ("dim", Dfl.Oracle.dim oracle); ("warm_calls", calls) ];
    digests = [ ("first_probe_availability", bits first) ];
    gates =
      [
        ("re-evaluating the first probe is bit-identical", Int64.equal (Int64.bits_of_float first) (Int64.bits_of_float again));
        ("every availability is finite and within [0,1]", List.for_all ok avails);
      ];
    cover_root = "oracle.call";
    overhead = overhead ops;
    op_walls = List.map (fun o -> o.wall_s) ops;
    steal = m.steal_share;
    redone = m.redone;
  }

(* ------------------------------------------------------------------ *)
(* sweep: the scenario matrix on a subset of the default axes.  The only
   workload that runs Runtime.run with the detour tier, Detours and the
   traffic-model classes. *)

let sweep_topologies = [ "Abilene"; "B4" ]
let sweep_kinds = [ "gravity"; "coremelt" ]
let sweep_profiles = [ "clean" ]
let sweep_seed = 3
let sweep_epochs = 12
let sweep_scale = 2.0

(* The env Sweep.run builds for one (topology, traffic model) combo. *)
let combo_env topo tm =
  Availability.make_env ~traffic:(Traffic_model.to_traffic tm)
    ~tunnels:(Tunnels.build topo tm.Traffic_model.tm_pairs)
    topo

(* Per-combo decomposition legs: the combo alone through Sweep.run, and
   the pieces Sweep.run builds it from, each on its own. *)
let sweep_legs ctx =
  let combo_s = ref [] and run_s = ref [] and build_s = ref [] and phi_s = ref [] in
  let hits = ref 0 and misses = ref 0 in
  List.iter
    (fun topo_name ->
      let topo = Topology.by_name topo_name in
      List.iter
        (fun spec ->
          let tm = Traffic_model.by_name spec topo in
          let env = combo_env topo tm in
          let (_ : Detours.t), w =
            wall (fun () -> span ctx "detours.build" (fun () -> Detours.build env.Availability.ts))
          in
          build_s := w :: !build_s;
          let phi_scheme =
            Schemes.prete_default
              ~predictor:(Hazard.eval ~num_fibers:(Topology.num_fibers topo))
              ()
          in
          let standing = Array.map (fun d -> d *. sweep_scale) (Traffic_model.baseline tm) in
          let (_ : float), w =
            wall (fun () ->
                span ctx "sweep.standing_phi" (fun () ->
                    Sweep.standing_phi env phi_scheme ~demands:standing))
          in
          phi_s := w :: !phi_s;
          List.iter
            (fun pf_name ->
              let pf = Sweep.profile_by_name pf_name in
              let cfg =
                {
                  Rt.default_config with
                  Rt.topology = topo_name;
                  traffic = spec;
                  epochs = sweep_epochs;
                  seed = sweep_seed;
                  scale = sweep_scale;
                  impairments = pf.Sweep.pf_impairments;
                  deadline_s = pf.Sweep.pf_deadline_s;
                  debounce_s = pf.Sweep.pf_debounce_s;
                  detour = true;
                  lp_engine = Prete_lp.Simplex.engine_name !Prete_lp.Simplex.default_engine;
                }
              in
              let r, w =
                wall (fun () -> span ctx "runtime.run" (fun () -> Rt.run ~pool:ctx.pool ~env cfg))
              in
              run_s := w :: !run_s;
              hits := !hits + M.counter r.Rt.r_metrics "plan_cache_hits";
              misses := !misses + M.counter r.Rt.r_metrics "plan_cache_misses";
              let (_ : Sweep.portfolio), w =
                wall (fun () ->
                    span ctx "sweep.combo" (fun () ->
                        Sweep.run ~pool:ctx.pool ~seed:sweep_seed ~epochs:sweep_epochs
                          ~scale:sweep_scale ~topologies:[ topo_name ] ~traffic:[ spec ]
                          ~profiles:[ pf_name ] ()))
              in
              combo_s := w :: !combo_s)
            sweep_profiles)
        sweep_kinds)
    sweep_topologies;
  Printf.printf "count leg_plan_cache_hits %d\ncount leg_plan_cache_lookups %d\n" !hits
    (!hits + !misses);
  [
    ("sweep.combo_s_p50", median_of !combo_s);
    ("runtime.run_s", median_of !run_s);
    ("detours.build_s", median_of !build_s);
    ("sweep.standing_phi_s", median_of !phi_s);
    ("controller.cache_hit_ratio", ratio (float_of_int !hits) (float_of_int (!hits + !misses)));
  ]

(* The matrix itself is fixed: sample-path seed 3, where every combo
   raises alarms and activates detours, and each traffic model's default
   matrices.  Seeding either changes how much work a run holds (with one
   traffic seed Sweep.run took 50% longer than with another), so the
   seed only picks the order in which the matrix axes are listed and the
   combos run.

   An untimed Sweep.run of the whole matrix comes first: it pays the
   warm-up and gives the portfolio that is checked and reported.  The
   measured operation is then one combo through Sweep.run, the combos
   taking turns; a combo alone must give the cells the whole matrix gave
   it.  One matrix pass is timed as the sum over combos of each combo's
   median wall, so that a burst of host noise moves one sample of one
   combo rather than a whole pass. *)
let sweep ctx =
  let rng = Rng.create ctx.seed in
  let order l = if Rng.bool rng then l else List.rev l in
  let topologies = order sweep_topologies in
  let traffic = order sweep_kinds in
  let combos = List.concat_map (fun t -> List.map (fun k -> (t, k)) traffic) topologies in
  let n_combos = List.length combos in
  let setup_s, () =
    setups (fun () ->
        List.iter
          (fun (topo_name, spec) ->
            let topo = Topology.by_name topo_name in
            ignore (combo_env topo (Traffic_model.by_name spec topo)))
          combos)
  in
  let sweep_run ~topologies ~traffic =
    Sweep.run ~pool:ctx.pool ~seed:sweep_seed ~epochs:sweep_epochs ~scale:sweep_scale ~topologies
      ~traffic ~profiles:sweep_profiles ()
  in
  let p0 = sweep_run ~topologies ~traffic in
  let ops, m =
    measure ctx ~root:"sweep.op" ~min_ops:n_combos ~cycle:n_combos (fun i ->
        let topo_name, spec = List.nth combos (i mod n_combos) in
        span ctx "sweep.run" (fun () -> sweep_run ~topologies:[ topo_name ] ~traffic:[ spec ]))
  in
  let slot o = List.nth combos (o.index mod n_combos) in
  let combo_cells (topo_name, spec) (p : Sweep.portfolio) =
    List.sort compare
      (List.filter
         (fun (cl : Sweep.cell) -> cl.Sweep.cl_topology = topo_name && cl.Sweep.cl_traffic = spec)
         p.Sweep.pt_cells)
  in
  let alone_ok =
    List.for_all (fun o -> combo_cells (slot o) o.value = combo_cells (slot o) p0) ops
  in
  let same_json =
    List.for_all
      (fun combo ->
        all_same
          (List.filter_map
             (fun o -> if slot o = combo then Some (Sweep.to_json o.value) else None)
             ops))
      combos
  in
  let cells_per_combo = List.length sweep_profiles * List.length Sweep.policies in
  let finite_cells p =
    List.length
      (List.filter (fun c -> Float.is_finite c.Sweep.cl_availability) p.Sweep.pt_cells)
  in
  let avail policy (c : Sweep.combo) =
    List.find_map
      (fun (cl : Sweep.cell) ->
        if
          cl.Sweep.cl_topology = c.Sweep.cb_topology
          && cl.Sweep.cl_traffic = c.Sweep.cb_traffic
          && cl.Sweep.cl_profile = c.Sweep.cb_profile
          && cl.Sweep.cl_policy = policy
        then Some cl.Sweep.cl_availability
        else None)
      p0.Sweep.pt_cells
  in
  let detour_ok =
    List.for_all
      (fun c ->
        match (avail "stream+detour" c, avail "stream" c) with
        | Some d, Some s -> d >= s
        | _ -> false)
      p0.Sweep.pt_combos
  in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 p0.Sweep.pt_combos in
  let cells = List.length p0.Sweep.pt_cells in
  let pass_s =
    List.fold_left
      (fun acc combo ->
        acc
        +. median_of
             (List.filter_map
                (fun o -> if slot o = combo && not o.in_trace then Some o.wall_s else None)
                ops))
      0.0 combos
  in
  let rate = float_of_int cells /. pass_s in
  let mean_avail =
    List.fold_left (fun acc c -> acc +. c.Sweep.cl_availability) 0.0 p0.Sweep.pt_cells
    /. float_of_int (max 1 cells)
  in
  let layers =
    if not ctx.traced then []
    else
      [
        ("detours.activations", float_of_int (sum (fun c -> c.Sweep.cb_detour_activations)));
        ("runtime.reactions", float_of_int (sum (fun c -> c.Sweep.cb_reactions)));
      ]
      @ leg ctx (fun () -> sweep_legs ctx) @ common_layers m
  in
  {
    setup_s;
    ops_per_s = rate;
    op_s_p50 = pass_s;
    delivered_share = mean_avail;
    attempted = cells_per_combo * List.length ops;
    failed = List.fold_left (fun acc o -> acc + cells_per_combo - finite_cells o.value) 0 ops;
    named =
      [
        ("sweep_cells_per_s", rate, "1/s");
        ("sweep_availability", mean_avail, "share");
      ];
    layers;
    counts =
      [
        ("combos", List.length p0.Sweep.pt_combos);
        ("cells", cells);
        ("combo_runs", List.length ops);
        ("alarms", sum (fun c -> c.Sweep.cb_alarms));
        ("reactions", sum (fun c -> c.Sweep.cb_reactions));
        ("detour_activations", sum (fun c -> c.Sweep.cb_detour_activations));
      ];
    digests = [ ("portfolio_json", hexdigest (Sweep.to_json p0)) ];
    gates =
      [
        ("every combo of the matrix has a cell per policy", cells = n_combos * cells_per_combo);
        ("each combo alone gives the cells the whole matrix gives it", alone_ok);
        ("Sweep.to_json of each combo identical across runs", same_json);
        ("stream+detour >= stream on every combo", detour_ok);
      ];
    cover_root = "sweep.op";
    overhead = overhead ~cycle:n_combos ops;
    op_walls = List.map (fun o -> o.wall_s) ops;
    steal = m.steal_share;
    redone = m.redone;
  }

let all =
  [
    ("fleet_stream", fleet_stream);
    ("reaction", reaction);
    ("oracle", oracle);
    ("sweep", sweep);
  ]
