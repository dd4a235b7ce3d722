(* Bit-identity pins for the LU simplex engine, and its allocation
   budget.

   The golden lines fix, for a set of seeded LPs, the pivot count, the
   refactorization count and the IEEE bits of the objective and of every
   dual; and for [Te.solve] on grid3's no-degradation state at demand
   scale 2 (cold, then warm from its own final basis) the pivot count
   and the bits of φ, of the expected served share and of every
   allocation entry (as one MD5 over their hex bits).  The values were
   recorded on the engine as it stood before its hot paths were made
   allocation-free; that rewrite keeps every floating-point operation in
   its order, so any drift here means a pivot or a rounding changed.

   The budget test bounds the words [Te.solve] allocates per pivot on
   the same grid3 problem.  Sequential allocation counts are
   deterministic, so the bound is exact, not statistical. *)

open Prete
open Prete_net
module Lp = Prete_lp.Lp
module Simplex = Prete_lp.Simplex
module Rng = Prete_util.Rng

let bits x = Printf.sprintf "%Lx" (Int64.bits_of_float x)

let outcome_line label = function
  | Simplex.Infeasible -> label ^ " infeasible"
  | Simplex.Unbounded -> label ^ " unbounded"
  | Simplex.Optimal s ->
    String.concat " "
      ([ label;
         string_of_int s.Simplex.iterations;
         string_of_int s.Simplex.refactorizations;
         bits s.Simplex.objective ]
      @ Array.to_list (Array.map bits s.Simplex.duals))

let lp_line label model = outcome_line label (Simplex.solve ~engine:Simplex.Lu model)

(* The seeded generators of the differential suite, at the seeds it
   uses.  The warm pair re-solves an rhs-perturbed copy from the base
   model's final basis, exercising reinstall and dual repair. *)
let lp_lines () =
  let out = ref [] in
  let add l = out := l :: !out in
  for seed = 0 to 24 do
    let rng = Rng.create (seed + 41_000) in
    add (lp_line (Printf.sprintf "feasible.%d" seed)
           (Lp_gen.build_lp (Lp_gen.random_lp_coefs rng)))
  done;
  for seed = 0 to 14 do
    let rng = Rng.create (seed + 113_000) in
    add (lp_line (Printf.sprintf "bounded.%d" seed) (fst (Lp_gen.bounded_lp rng)))
  done;
  for seed = 0 to 14 do
    let rng = Rng.create (seed + 127_000) in
    add (lp_line (Printf.sprintf "salted.%d" seed) (Lp_gen.salted_lp rng))
  done;
  for seed = 0 to 14 do
    let rng = Rng.create (seed + 139_000) in
    let spec = Lp_gen.random_lp_coefs rng in
    let base = Lp_gen.build_lp spec in
    let perturbed = Lp_gen.build_lp ~slack_scale:0.7 spec in
    match Simplex.solve ~engine:Simplex.Lu base with
    | Simplex.Optimal cold ->
      add (outcome_line (Printf.sprintf "warm.%d.cold" seed) (Simplex.Optimal cold));
      add
        (outcome_line (Printf.sprintf "warm.%d.warm" seed)
           (Simplex.solve ~engine:Simplex.Lu ~warm:cold.Simplex.basis perturbed))
    | o -> add (outcome_line (Printf.sprintf "warm.%d.cold" seed) o)
  done;
  List.rev !out

(* grid3's no-degradation state at scale 2, built the way the PreTE
   scheme builds it inside [Availability.availability]. *)
let grid3_state0 =
  lazy
    (let env = Availability.make_env (Topology.by_name "grid3") in
     let demands =
       Traffic.demand env.Availability.traffic ~scale:2.0 ~epoch:env.Availability.epoch
     in
     let degraded, _ = (Availability.Internal.degradation_states env).(0) in
     assert (degraded = None);
     let probs =
       Calibrate.probabilities
         (Calibrate.Calibrated (Calibrate.mean_hazard_predictor env.Availability.model))
         env.Availability.model
         { Calibrate.degraded = []; Calibrate.will_cut = [] }
     in
     Te.make_problem ~ts:env.Availability.ts ~demands ~probs ~beta:env.Availability.beta ())

let te_solve ?warm () =
  Te.solve ~relaxation_start:false ?warm (Lazy.force grid3_state0)

let te_line label (s : Te.solution) =
  let alloc = String.concat "," (Array.to_list (Array.map bits s.Te.alloc)) in
  Printf.sprintf "%s solves=%d pivots=%d phi=%s served=%s alloc=%s" label
    s.Te.stats.Te.lp_solves s.Te.stats.Te.lp_pivots (bits s.Te.phi)
    (bits s.Te.expected_served)
    (Digest.to_hex (Digest.string alloc))

let te_lines () =
  let cold = te_solve () in
  let warm = te_solve ?warm:cold.Te.basis () in
  [ te_line "grid3.state0.cold" cold; te_line "grid3.state0.warm" warm ]

(* One line per LP: label, pivots, refactorizations, objective bits,
   dual bits by constraint. *)
let expected_lp =
  [
    "feasible.0 7 1 c02b92f1321498a9 0 3fd25e3b76757850 8000000000000000 bfe70b37f5edaf17 3ff876106ccefa07 bcc4166a3e043ad5 bfdb6db593b53a86 bfd2b3ae3fb7b5d4 0";
    "feasible.1 6 1 c0640efc31be7d86 bfe00d645cbcf9b2 bc503b7cb0e69150";
    "feasible.2 8 1 40004b9f3ca1daa2 3c9fc697d44f0209 bfe54e1b2ac36540 3fdc905dd6180e6f 3ff0b227c7d37cc0 0 bc97c17bec9699c1 3fcfee7f6d1eab97 3cbac068d22cac16";
    "feasible.3 5 1 4026096a94d7ff0e 8000000000000000 bfc5de5ac594e812 3fdc6ba0e6dbd556 bfefbdf3f4458676 8000000000000000 bffa5afac8738793";
    "feasible.4 3 1 bffa92ffeb443c51 bc964b77336677bc 3feb861857d3d1a9";
    "feasible.5 6 1 c01b3cab4f80402f 3fe0adc61e5f8b11 b91e8b637af63300 3c70f82ec5ad5b16 3fd3aac2a1f5c24c bc5912ced7b82363 b922b48d19243968";
    "feasible.6 8 1 40485f89bd4a4d40 8000000000000000 3fe5d7bd044d4dac 8000000000000000 3ca02a48b328ee07 3ca79d1329e02885";
    "feasible.7 7 1 402344431623be8c bfb637217bc876bb bfc653212d4f666d 3c855e47a77f7295 3fb27f8a2f64fe17 3fdeb8c5d7e11e75 3c4dfb8b54364bab";
    "feasible.8 4 1 bffdf1aaf5ca539a 3fb538f6dcd889a2 8000000000000000 3fd321e9eee3d295 3fd5ba3154d42fdf";
    "feasible.9 4 1 c032c7e91b9060ef bfc20a0081dc74a9 0 0 3c4a20eec7ee8be4 3fb72ace51541ffa 0";
    "feasible.10 6 1 c05eaa07606affde 3fd8471ba960b13c bfd18a43105c401d";
    "feasible.11 7 1 c01a7f34b9de9ac5 c02459a8f63ce311 8000000000000000 40333591e6db0e51 bfe294fa331fcd24 40380e5f58e4e04d 0 bfdf5b7d43775924 bfebf8986f75b247";
    "feasible.12 8 1 c0174d83e8ed8926 3fcaad8d8facb083 3c91f5486ff65f70 3fc6d316e2543a85 bfe276c4948b4c04 3fbd69ed3d11232b 8000000000000000 0 bc9dea6f9b4ce7e8 bc7a26b2e6d8ee2e";
    "feasible.13 6 1 40517b893a596f92 0 bfe85b506dcb0543 8000000000000000 8000000000000000";
    "feasible.14 5 1 4012558638cd376d 3c8d538b2a6db088 3fc9bb51791767e0 0 3fb364d88f429ee7";
    "feasible.15 2 1 c02c3df53b8be485 3fe325f629af9760 3ff60ec4361911fa 0";
    "feasible.16 7 1 bfe8782dd38fa30c 0 0 3c768db12f818449 bfa62298b4a7b064 bf987f6e32a661f4 bfde82a1c6c63f2a 3ca0700930bbb190 bfb77bc92854cddc";
    "feasible.17 9 1 401d6809be061f9b 3c7537cd975ac957 0 3fb6fd5580660210 8000000000000000 3fde01fa569d7506 3cb461b3320585e8 bc94ee35d3c2ace9 0 3fcbe6f23b542fe8";
    "feasible.18 4 1 3ffed93033d5e6f3 3fc7397d9b2822f0 8000000000000000";
    "feasible.19 5 1 c05d75ae762c10d0 0 3fb454ae37a93b52 bfef602f07cd8bbe";
    "feasible.20 9 1 c0301a25a1dca5cb 0 bfe59fa9ed2186b0 3ff8c1e87657c234 3fda87ca88fee00e bcc2c9c4cc887285";
    "feasible.21 10 1 c060f18654cb31ae 3fdb82f792cc4dfe 3fcf8e6846fb2806 3fe32f18c2d2d8fe bcc12e73f9df5504 3fd8d007665a7be5";
    "feasible.22 0 0 0 8000000000000000 8000000000000000 8000000000000000";
    "feasible.23 4 1 4063304062a51c96 8000000000000000 3f87714f18657cc5";
    "feasible.24 8 1 4010314ad718d902 0 3cb8985fa3b6759b bc9c4b0c32be2e1e 3fe6c2cd7222fd76 3ff1dbac6dd8bb1f 8000000000000000 bcb103cc98583e3c bc90c4187d9da6ba 3c83b1b9ec60de19";
    "bounded.0 2 1 402591dfc9f7ad6c 40012a85dab08081";
    "bounded.1 2 1 40085ecf5b2fed88 3ff1a5987d392037";
    "bounded.2 2 1 40229ddc1c79c219 4004756c0aa3451e";
    "bounded.3 1 1 401a11ea9665d19e 40072adc87c0bb0c";
    "bounded.4 2 1 401ed46bd20fe907 4003bce03a8e91dc";
    "bounded.5 2 1 40096f1fde4de86b 3ff7daa3b8bd9f3a";
    "bounded.6 1 1 400c2d00bb890e7e 400654982b5f0f6e";
    "bounded.7 2 1 401099c025b2d6be 3ffaff1034d248f3";
    "bounded.8 1 1 400faaa20674d248 40055ed0c9c616fd";
    "bounded.9 1 1 400e7841f28eda66 4005fa6e2581d3e5";
    "bounded.10 3 1 402a147393307a14 400233c32b085f38";
    "bounded.11 2 1 401c694507964faa 400480a651d82ebf";
    "bounded.12 2 1 4022a8d368bad6cb 4003789d2eb3a780";
    "bounded.13 2 1 4027929c8b75b0e7 40035466c1cb95ef";
    "bounded.14 2 1 40255554221071e2 8000000000000000";
    "salted.0 2 1 3fde3d058af20c5d 0 8000000000000000 0 3fdb51b0a412edb8 0";
    "salted.1 10 1 c060257b2372c6ec bfdc432e48ee223d 3cb381011a56a6d4 bc963d64b925ec0e bfe4f3d4896f856f 3c87ca4435fb29f7 bc865076c2ee5d79 bcc3e5fb6dd4b29a 0 0 0";
    "salted.2 2 1 400f13caf09f6e25 0 3fdb5d3e5bf1a235 bfb70d5492c37a58 8000000000000000";
    "salted.3 10 1 40310f60c1beb3db bfa159d6116b1cfa bc975cbec0ce3372 bfe930bafc591ea1 bc96702a4fb61e92 bff06feb7bb3f347 0 3fde044e49140606 bfe043ef468a1443 bcb0a9d1a33fd3fe 0 8000000000000000";
    "salted.4 7 1 400ec3066dc214ec 0 bfd8a28fcdae790e bfe55dafbf40ae0d c002ade037c7e1a3 3fe6fac59742b1ec 8000000000000000 8000000000000000";
    "salted.5 1 1 c006127aa967fa5e c000bedb88a0624c 8000000000000000 8000000000000000 0 8000000000000000 8000000000000000";
    "salted.6 5 1 c009cc1eb651d382 395ba08fffd9875d bff704b86d6af5ff 0 3c8c81a492dee865 3c84335f27588f67 0";
    "salted.7 5 1 c052c90bfb6af96e 0 bfaf4b0ec2fe33fc 0 0";
    "salted.8 8 1 c026d91e33f33a48 3fe074b605d8814b bff52c6c87205355 8000000000000000 3ca4e6a75ba5202c 4009e6151602168c 3fc298f4bb27e574 8000000000000000 8000000000000000 c00beb11ebc05e14 0 0";
    "salted.9 6 1 40436ae18ebf1f9e bfde8fc55c1e57f5 3c7423319e194d4f 3c5d4b7a70d8954f 0 8000000000000000";
    "salted.10 6 1 4026e8035633338a 3fca691b99a7a0dc bff68a3558323a05 bff26bbe8a779995 0 bfdafa7ce3bcb9fb 3fe22402632afd0f 8000000000000000 8000000000000000";
    "salted.11 6 1 c06146ff4d3f8bce 0 0 3f906db57ef88058 8000000000000000 3fbb1cd5e4016aa5 0 0";
    "salted.12 4 1 3ff4ed2562fcfcb0 bfe63a41a5db31e0 8000000000000000 0 0 0 3ff3a5b047f18185 8000000000000000 0 8000000000000000 0";
    "salted.13 6 1 40101f65e052db8b 400f85dc010424c8 0 bcbf4850a623ec49 3fdbd68c67e90890 bffb7f5a4a2d254a bfeb54cfe94815fd 0 0";
    "salted.14 4 1 c030cb6c8b680ede 8000000000000000 3fdf5ebad5de2723 bfe47d2e9771e8d6 bfb0f4534998c0f2 0";
    "warm.0.cold 9 1 40202460bcda6813 bccf7c2f3fcbd0ef 3fc8718b45c3f6f0 bcc1927d30a058a8 3fe370771970e6e3 8000000000000000 3fb82c983978e9c1";
    "warm.0.warm 1 2 401ffb159d972512 3f8ace0005caedc6 3fc821e550f2f66d 0 3fe33b7b16552f05 8000000000000000 3fbbe630647aacfe";
    "warm.1.cold 3 1 4011ea647d45a056 bff069d4b9019fa8 8000000000000000 0 0 3c93b6cde109d361 3fc1d1184707b3b4";
    "warm.1.warm 0 2 401219c684bdd612 bff069d4b9019fa8 8000000000000000 0 0 8000000000000000 3fc1d1184707b3b3";
    "warm.2.cold 9 1 c02ae737e3603060 bfd2d47d41235a15 3c86cf932f6c8f9d bff265cc6b5b0ed5 bfe13a420a543b15 bcab6558707d4840 3fd892eec5f85986 3ca05e6383a584da";
    "warm.2.warm 0 2 c02a4cf503433968 bfd2d47d41235a0e 8000000000000000 bff265cc6b5b0ed3 bfe13a420a543b12 0 3fd892eec5f85984 0";
    "warm.3.cold 4 1 c00be4baf1136539 0 0 3fee3fabcb3b8770 3ff68f78b3fe1edb 0 bfb7b9e17a75e1aa";
    "warm.3.warm 0 2 c00b52f56193ee3b 8000000000000000 0 3fee3fabcb3b8770 3ff68f78b3fe1edb 0 bfb7b9e17a75e1ae";
    "warm.4.cold 10 1 3fd9e965a1ba8218 3fc1326f7b979898 bcba810172377a59 3fd81ea766f51da0 bcab562dac876383 3fd90eb969bfbeb7 3fd362cefa266904 8000000000000000 8000000000000000 3fe06d81849e14f9";
    "warm.4.warm 0 2 bfd2343e4b7ef4cc 3fc1326f7b979899 0 3fd81ea766f51da0 0 3fd90eb969bfbeb1 3fd362cefa2668fd 8000000000000000 8000000000000000 3fe06d81849e14f5";
    "warm.5.cold 6 1 40148c705bf7fddd bff8d04fd148c373 3febb4049148e1a8 0 3ca7c69904ca1171 8000000000000000 3ca77428609744ef 8000000000000000";
    "warm.5.warm 0 2 40148c705bf7fddd bff8d04fd148c377 3febb4049148e1a9 0 8000000000000000 8000000000000000 0 8000000000000000";
    "warm.6.cold 3 1 40081b77e3321931 3fe4f7959cd2089f 0 3ff0927b2fe13da9";
    "warm.6.warm 0 2 3ffc7fffe40a3cb0 3fe4f7959cd208a0 0 3ff0927b2fe13daa";
    "warm.7.cold 4 1 c040b18d4a21a1fe bc7c88e2ddbc9b6d bff5fe7be1602d52";
    "warm.7.warm 0 2 c04075606df5f7f3 8000000000000000 bff5fe7be1602d52";
    "warm.8.cold 5 1 3ff2c4865b467afa c0209696b7d39e41 bcae1a26d7ee89d9 3cc6cdb51778f11d 0 3ff0c00f6607719c 0 0";
    "warm.8.warm 0 2 3f8fa869475be600 c0209696b7d39e40 0 0 0 3ff0c00f6607719a 0 0";
    "warm.9.cold 6 1 4023817687669963 8000000000000000 bfd4b06a51042947 bfeea2b6017be0ff 8000000000000000 3fd53022c155abd2 3caa56fcd2e1b4b3 bc9e6098d6cfaeed 3ca431e9c3c0edff 0";
    "warm.9.warm 0 2 402406912f2f5e32 8000000000000000 bfd4b06a5104294c bfeea2b6017be100 8000000000000000 3fd53022c155abcd 0 0 0 0";
    "warm.10.cold 7 1 3faafa466540c280 bc9f8448f2e6d0aa 8000000000000000 3ff31e73a95e2de5 3fb1b1cf66538310 3fb2c49496ddf948 bfe9c67507f82e60 3fe49190ff7d3821 bc7817cd9b913b99";
    "warm.10.warm 0 2 bfdf2a21231963e0 8000000000000000 8000000000000000 3ff31e73a95e2de5 3fb1b1cf6653831d 3fb2c49496ddf939 bfe9c67507f82e5d 3fe49190ff7d3824 8000000000000000";
    "warm.11.cold 3 1 402aa113cf071e04 0 0 0 8000000000000000 0 bfe7e74be45ef0a4";
    "warm.11.warm 0 2 40292f6ce02acea1 0 0 0 8000000000000000 8000000000000000 bfe7e74be45ef0a3";
    "warm.12.cold 5 1 c04b2e1efafcbcee bfc5574ad3e4ad5e bfb4bfc95a8aa0e5 3fd586e4f0cbf1b3";
    "warm.12.warm 0 2 c04b2e1efafcbcea bfc5574ad3e4ad67 bfb4bfc95a8aa0e5 3fd586e4f0cbf1b3";
    "warm.13.cold 5 1 c04a08862bcca734 3fd29ebef35ef8ab 3fe132afcb468073";
    "warm.13.warm 0 2 c049f8cda58d338c 3fd29ebef35ef8a3 3fe132afcb468072";
    "warm.14.cold 7 1 4008388e1112bed2 8000000000000000 3c85ae7ca6fb1f9a 0 bc9bd800bd3d1102 3fd4cb98195ce700 bc7c374c8ff0ed83 bc863ec42d08c7e6 bff0a870f441db32";
    "warm.14.warm 0 2 4009ad71a33ad6fa 0 0 0 8000000000000000 3fd4cb98195ce700 8000000000000000 0 bff0a870f441db33";
  ]

let expected_te =
  [
    "grid3.state0.cold solves=5 pivots=2336 phi=3fc22d4a623a55ab served=3fef78b1db3f15c8 alloc=58860e6c20c6242a2009176fce81bc6f";
    "grid3.state0.warm solves=9 pivots=4177 phi=3fc22d4a623a55a9 served=3fefc9ec6b5a5b2f alloc=b03c602e232fadbf5864f8082fbd3194";
  ]

let check_lines expected got =
  Alcotest.(check int) "line count" (List.length expected) (List.length got);
  List.iter2 (fun e g -> Alcotest.(check string) "golden line" e g) expected got

let test_lp_golden () = check_lines expected_lp (lp_lines ())

let test_te_golden () = check_lines expected_te (te_lines ())

(* Words allocated per simplex pivot across a whole [Te.solve]: model
   building, presolve, factorizations and pivots together, but not the
   environment the problem is built from. *)
let test_alloc_budget () =
  ignore (Lazy.force grid3_state0);
  let per_pivot ?warm () =
    let w0 = Gc.minor_words () in
    let s = te_solve ?warm () in
    let words = Gc.minor_words () -. w0 in
    (s, words /. float_of_int (max 1 s.Te.stats.Te.lp_pivots))
  in
  let cold, wc = per_pivot () in
  let _, ww = per_pivot ?warm:cold.Te.basis () in
  List.iter
    (fun (what, w) ->
      Printf.printf "%s: %.0f words per pivot\n" what w;
      if w > 1000.0 then
        Alcotest.failf "%s: %.0f words allocated per pivot (budget 1000)" what w)
    [ ("cold", wc); ("warm", ww) ]

let () =
  Alcotest.run "prete_golden"
    [
      ( "golden",
        [ Alcotest.test_case "lu engine on seeded LPs" `Quick test_lp_golden;
          Alcotest.test_case "te solve on grid3 state 0" `Quick test_te_golden ] );
      ( "alloc",
        [ Alcotest.test_case "te solve words per pivot" `Quick test_alloc_budget ] );
    ]
