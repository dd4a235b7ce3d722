(* The benchmark's own arithmetic on synthetic inputs: order statistics,
   the tail-percentile rule, span self time and coverage, diff verdicts
   and the JSON reader. *)

open Perfkit

let close = Alcotest.float 1e-12
let triple = Alcotest.(triple close close close)

let test_quartiles () =
  (* Expected values are Python's statistics.quantiles(xs, n=4). *)
  Alcotest.check triple "two points" (0.5, 2.0, 3.5) (Stats.quartiles [| 3.0; 1.0 |]);
  Alcotest.check triple "four points" (1.25, 2.5, 3.75) (Stats.quartiles [| 4.0; 2.0; 3.0; 1.0 |]);
  Alcotest.check triple "one to ten" (2.75, 5.5, 8.25)
    (Stats.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check triple "three points" (1.0, 2.0, 3.0) (Stats.quartiles [| 3.0; 1.0; 2.0 |]);
  Alcotest.check triple "one point" (5.0, 5.0, 5.0) (Stats.quartiles [| 5.0 |]);
  Alcotest.check close "spread" ((8.25 -. 2.75) /. 5.5)
    (Stats.spread (Array.init 10 (fun i -> float_of_int (i + 1))))

let test_median () =
  Alcotest.check close "odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.check close "even" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |])

let ramp n = Array.init n (fun i -> float_of_int (n - i))

let test_percentile () =
  Alcotest.check close "nearest rank p95 of 1..100" 95.0 (Stats.percentile (ramp 100) 95.0);
  Alcotest.check close "p50 of 1..5" 3.0 (Stats.percentile (ramp 5) 50.0);
  Alcotest.check close "p100 is the max" 7.0 (Stats.percentile (ramp 7) 100.0)

let tail = Alcotest.(option (pair close close))

let test_tail_rule () =
  (* p95 needs 200 samples for ten of them to lie beyond it. *)
  Alcotest.check tail "200 samples: p95" (Some (95.0, 190.0)) (Stats.tail (ramp 200));
  Alcotest.check tail "199 samples: p90" (Some (90.0, 180.0)) (Stats.tail (ramp 199));
  Alcotest.check tail "1000 samples: p99" (Some (99.0, 990.0)) (Stats.tail (ramp 1000));
  Alcotest.check tail "20 samples: median" (Some (50.0, 10.0)) (Stats.tail (ramp 20));
  Alcotest.check tail "19 samples: none" None (Stats.tail (ramp 19));
  Alcotest.check Alcotest.(option close) "p95 unresolved below 200" None
    (Stats.percentile_if_resolved (ramp 199) 95.0);
  Alcotest.check Alcotest.(option close) "p95 resolved at 200" (Some 190.0)
    (Stats.percentile_if_resolved (ramp 200) 95.0)

let sp id parent name start stop = { Trace.id; parent; name; start; stop }

let spans =
  [
    sp 0 None "op" 0.0 10.0;
    sp 1 (Some 0) "a" 1.0 3.0;
    (* Overlaps the first [a]: the union, not the sum, is covered. *)
    sp 2 (Some 0) "b" 2.0 5.0;
    sp 3 (Some 0) "a" 7.0 8.0;
    sp 4 (Some 2) "c" 2.5 3.5;
    sp 5 None "op" 20.0 24.0;
    (* Runs past its parent: only the part inside counts. *)
    sp 6 (Some 5) "a" 23.0 26.0;
  ]

let self_of name =
  List.fold_left
    (fun acc (s, self) -> if s.Trace.name = name then acc +. self else acc)
    0.0 (Trace.self_times spans)

let test_self_time () =
  Alcotest.check close "op self" ((10.0 -. 5.0) +. (4.0 -. 1.0)) (self_of "op");
  Alcotest.check close "b self excludes c" 2.0 (self_of "b");
  Alcotest.check close "a has no children" 6.0 (self_of "a");
  let rows = Trace.table spans in
  let row name = List.find (fun r -> r.Trace.r_name = name) rows in
  Alcotest.(check int) "a calls" 3 (row "a").Trace.r_calls;
  Alcotest.check close "op total" 14.0 (row "op").Trace.r_total;
  Alcotest.(check string) "largest self first" "op" (List.hd rows).Trace.r_name;
  Alcotest.check close "coverage" (6.0 /. 14.0) (Trace.coverage spans ~root:"op");
  Alcotest.check close "no root spans" 0.0 (Trace.coverage spans ~root:"none")

let test_recorder () =
  let clock = ref 0.0 in
  let now () = clock := !clock +. 1.0; !clock in
  let t = Trace.create ~now () in
  Alcotest.(check int) "disabled records nothing" 7 (Trace.with_span t "x" (fun () -> 7));
  Alcotest.(check int) "no spans" 0 (List.length (Trace.spans t));
  Trace.set_enabled t true;
  Trace.with_span t "outer" (fun () -> Trace.with_span t "inner" (fun () -> ()));
  (match Trace.spans t with
  | [ inner; outer ] ->
    Alcotest.(check (option int)) "parent" (Some outer.Trace.id) inner.Trace.parent;
    Alcotest.check close "outer duration" 3.0 (Trace.duration outer)
  | l -> Alcotest.failf "expected two spans, got %d" (List.length l));
  match Json.parse (Trace.chrome_json t) with
  | exception Json.Error e -> Alcotest.failf "chrome trace is not JSON: %s" e
  | j ->
    let events = Json.to_list (Json.field "traceEvents" j) in
    Alcotest.(check int) "two events" 2 (List.length events);
    Alcotest.(check string) "complete event" "X"
      (Json.to_string (Json.field "ph" (List.hd events)))

let verdict = Alcotest.testable (Fmt.of_to_string Diff.verdict_name) ( = )
let seeded l = List.mapi (fun i v -> (Some i, v)) l
let around c = seeded (List.map (fun d -> c *. (1.0 +. d)) [ -0.01; 0.0; 0.01; -0.005; 0.005 ])

let check_verdict name expected ~better ~bound ~old ~new_ =
  let v, _, _ = Diff.verdict ~better ~bound ~old ~new_ in
  Alcotest.check verdict name expected v

let test_diff () =
  check_verdict "same" Diff.No_worse ~better:Diff.Lower ~bound:0.1 ~old:(around 1.0) ~new_:(around 1.0);
  check_verdict "within bound" Diff.No_worse ~better:Diff.Lower ~bound:0.1 ~old:(around 1.0)
    ~new_:(around 1.05);
  check_verdict "worse time" Diff.Worse ~better:Diff.Lower ~bound:0.1 ~old:(around 1.0)
    ~new_:(around 1.2);
  check_verdict "worse throughput" Diff.Worse ~better:Diff.Higher ~bound:0.1 ~old:(around 1.0)
    ~new_:(around 0.8);
  check_verdict "faster" Diff.Improved ~better:Diff.Lower ~bound:0.1 ~old:(around 1.0)
    ~new_:(around 0.8);
  check_verdict "higher throughput" Diff.Improved ~better:Diff.Higher ~bound:0.1
    ~old:(around 1.0) ~new_:(around 1.2);
  (* Better median by less than the old side's interquartile distance. *)
  check_verdict "gain inside the noise" Diff.No_worse ~better:Diff.Lower ~bound:0.1
    ~old:(around 1.0) ~new_:(around 0.995);
  let noisy = seeded [ 1.0; 1.5; 2.0; 2.5; 3.0 ] in
  check_verdict "noisy side" Diff.Unresolved ~better:Diff.Lower ~bound:0.1 ~old:noisy
    ~new_:(around 2.0);
  check_verdict "noisy but every new run better" Diff.Improved ~better:Diff.Lower ~bound:0.1
    ~old:noisy ~new_:(around 0.4);
  (* Pairs come from matching seeds: a new side that wins only 3 of 5
     seed-matched pairs is no improvement, whatever the medians say. *)
  check_verdict "pairs by seed" Diff.No_worse ~better:Diff.Lower ~bound:2.0
    ~old:(seeded [ 1.0; 1.0; 1.0; 1.0; 1.0 ])
    ~new_:(seeded [ 0.5; 0.5; 0.5; 1.1; 1.1 ]);
  let v, o, n = Diff.failed_verdict ~old:[ (100, 0); (100, 0) ] ~new_:[ (100, 1); (100, 0) ] in
  Alcotest.check verdict "more failures" Diff.Worse v;
  Alcotest.check close "old share" 0.0 o;
  Alcotest.check close "new share" 0.005 n

let test_json () =
  let j =
    Json.parse
      {| {"a": [1, -2.5e3, true, null], "b": {"c": "x\"yé\n"}, "d": []} |}
  in
  Alcotest.(check int) "array" 4 (List.length (Json.to_list (Json.field "a" j)));
  Alcotest.check close "exponent" (-2500.0)
    (Json.to_float (List.nth (Json.to_list (Json.field "a" j)) 1));
  Alcotest.(check string) "escapes" "x\"y\xc3\xa9\n" (Json.to_string (Json.field "c" (Json.field "b" j)));
  Alcotest.(check bool) "missing member" true (Json.member "z" j = None);
  List.iter
    (fun bad ->
      match Json.parse bad with
      | exception Json.Error _ -> ()
      | _ -> Alcotest.failf "accepted %S" bad)
    [ "{"; "[1,]"; "{\"a\" 1}"; "tru"; "1 2"; "\"open" ]

let () =
  Alcotest.run "perfkit"
    [
      ( "stats",
        [
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
        ] );
      ( "trace",
        [
          Alcotest.test_case "self time and coverage" `Quick test_self_time;
          Alcotest.test_case "recorder and chrome json" `Quick test_recorder;
        ] );
      ("diff", [ Alcotest.test_case "verdicts" `Quick test_diff ]);
      ("json", [ Alcotest.test_case "reader" `Quick test_json ]);
    ]
