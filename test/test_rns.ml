(* Tests for the Residue Number System encoding — the heart of KAR.

   Anchored on the paper's worked examples (R = 44 and R = 660), plus
   randomized CRT properties: roundtrip, uniqueness below the modulus
   product, order independence of the residue list (the commutativity that
   makes driven-deflection protection possible), incremental extension, and
   agreement of the machine-int Garner encode with the all-bignum Garner
   and with the direct CRT summation, kept here as the reference. *)

module Z = Bignum.Z

let z = Alcotest.testable Z.pp Z.equal

let residue modulus value = { Rns.modulus; value }

(* --- unit: the paper's example --- *)

let test_paper_primary () =
  let r, m = Rns.encode_exn [ residue 4 0; residue 7 2; residue 11 0 ] in
  Alcotest.check z "R" (Z.of_int 44) r;
  Alcotest.check z "M" (Z.of_int 308) m

let test_paper_protected () =
  let r, m =
    Rns.encode_exn [ residue 4 0; residue 7 2; residue 11 0; residue 5 0 ]
  in
  Alcotest.check z "R" (Z.of_int 660) r;
  Alcotest.check z "M" (Z.of_int 1540) m

let test_paper_decode () =
  Alcotest.(check (list int))
    "ports of 660" [ 0; 2; 0; 0 ]
    (Rns.decode (Z.of_int 660) [ 4; 7; 11; 5 ]);
  Alcotest.(check (list int))
    "ports of 44" [ 0; 2; 0 ]
    (Rns.decode (Z.of_int 44) [ 4; 7; 11 ])

let test_paper_extend () =
  (* extending 44 (mod 308) with SW5 port 0 must give 660 (mod 1540) *)
  match Rns.extend ~route_id:(Z.of_int 44) ~modulus:(Z.of_int 308) [ residue 5 0 ] with
  | Ok (r, m) ->
    Alcotest.check z "R" (Z.of_int 660) r;
    Alcotest.check z "M" (Z.of_int 1540) m
  | Error e -> Alcotest.fail (Rns.error_to_string e)

(* --- unit: error paths --- *)

let test_not_coprime () =
  match Rns.encode [ residue 4 1; residue 6 1 ] with
  | Error (Rns.Not_pairwise_coprime (a, b)) ->
    Alcotest.(check bool) "pair" true ((a, b) = (4, 6) || (a, b) = (6, 4))
  | Error e -> Alcotest.failf "wrong error: %s" (Rns.error_to_string e)
  | Ok _ -> Alcotest.fail "expected failure"

let test_residue_out_of_range () =
  match Rns.encode [ residue 5 5 ] with
  | Error (Rns.Residue_out_of_range _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Rns.error_to_string e)
  | Ok _ -> Alcotest.fail "expected failure"

let test_empty () =
  match Rns.encode [] with
  | Error Rns.Empty_system -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Rns.error_to_string e)
  | Ok _ -> Alcotest.fail "expected failure"

let test_nonpositive () =
  match Rns.encode [ residue 1 0 ] with
  | Error (Rns.Nonpositive_modulus 1) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Rns.error_to_string e)
  | Ok _ -> Alcotest.fail "expected failure"

let test_extend_conflict () =
  match Rns.extend ~route_id:(Z.of_int 44) ~modulus:(Z.of_int 308) [ residue 14 3 ] with
  | Error (Rns.Modulus_conflict 14) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Rns.error_to_string e)
  | Ok _ -> Alcotest.fail "expected failure (14 shares factor 7 with 308)"

let test_coprime () =
  Alcotest.(check bool) "4,7" true (Rns.coprime 4 7);
  Alcotest.(check bool) "4,6" false (Rns.coprime 4 6);
  Alcotest.(check bool) "1,n" true (Rns.coprime 1 99);
  Alcotest.(check bool) "9,10" true (Rns.coprime 9 10)

let test_bit_length_bound () =
  Alcotest.(check int) "M=308" 9 (Rns.bit_length_bound (Z.of_int 308));
  Alcotest.(check int) "M=1540" 11 (Rns.bit_length_bound (Z.of_int 1540));
  Alcotest.(check int) "M=1" 0 (Rns.bit_length_bound Z.one);
  Alcotest.(check int) "M=2" 1 (Rns.bit_length_bound Z.two);
  (* The route ID can equal M-1 itself, so for M = 2^20 + 1 the field needs
     21 bits; the paper's literal ceil(log2(M-1)) would say 20 only because
     the formula has a corner case at exact powers of two. *)
  Alcotest.(check int) "M=2^20+1" 21 (Rns.bit_length_bound (Z.add (Z.pow Z.two 20) Z.one))

(* --- generators: random pairwise-coprime residue systems --- *)

let primes_pool =
  [| 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67; 71; 73 |]

let gen_system =
  QCheck2.Gen.(
    let* n = 1 -- 8 in
    let* start = 0 -- (Array.length primes_pool - 9) in
    let moduli = Array.to_list (Array.sub primes_pool start n) in
    let* values = flatten_l (List.map (fun m -> 0 -- (m - 1)) moduli) in
    pure (List.map2 (fun modulus value -> { Rns.modulus; value }) moduli values))

let qtest ?(count = 300) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let prop_roundtrip =
  qtest "decode (encode rs) recovers every residue" gen_system (fun rs ->
      let r, _ = Rns.encode_exn rs in
      List.for_all (fun { Rns.modulus; value } -> Rns.port r modulus = value) rs)

let prop_range =
  qtest "0 <= R < M" gen_system (fun rs ->
      let r, m = Rns.encode_exn rs in
      Z.sign r >= 0 && Z.compare r m < 0)

let prop_unique =
  qtest "R is the unique solution below M" gen_system (fun rs ->
      let r, m = Rns.encode_exn rs in
      let other = Z.erem (Z.add r Z.one) m in
      Z.equal other r
      || not
           (List.for_all
              (fun { Rns.modulus; value } -> Rns.port other modulus = value)
              rs))

let prop_order_independent =
  qtest "residue order does not change R (Eq. 4 commutativity)" gen_system
    (fun rs ->
      let r1, m1 = Rns.encode_exn rs in
      let r2, m2 = Rns.encode_exn (List.rev rs) in
      Z.equal r1 r2 && Z.equal m1 m2)

(* Direct CRT summation (paper Eq. 4), the reference the encoders must
   match: R = < sum p_i * M_i * L_i >_M with M_i = M / s_i and
   L_i = <M_i^{-1}>_{s_i}. *)
let crt_sum residues =
  let m = Rns.modulus_product (List.map (fun r -> r.Rns.modulus) residues) in
  let term acc r =
    let s = Z.of_int r.Rns.modulus in
    let mi = Z.div m s in
    match Z.invmod mi s with
    | Some li -> Z.add acc (Z.mul (Z.of_int r.Rns.value) (Z.mul mi li))
    | None -> Alcotest.fail "reference CRT: moduli not coprime"
  in
  (Z.erem (List.fold_left term Z.zero residues) m, m)

(* Pairwise-coprime systems of log-uniform moduli up to 2^62: about half
   the moduli are at or above [Nat.base] (the [Z] fallback of the encode
   digit), the rest take the machine-int path. *)
let gen_wide_system =
  QCheck2.Gen.(
    let modulus =
      let* bits = 2 -- 62 in
      int_range (1 lsl (bits - 1)) ((1 lsl (bits - 1)) - 1 + (1 lsl (bits - 1)))
    in
    let* candidates = list_size (6 -- 14) modulus in
    let moduli =
      List.fold_left
        (fun kept m ->
          if m > 1 && List.for_all (Rns.coprime m) kept then m :: kept else kept)
        [] candidates
    in
    let* values = flatten_l (List.map (fun m -> 0 -- (m - 1)) moduli) in
    pure (List.map2 (fun modulus value -> { Rns.modulus; value }) moduli values))

let agree_with_reference rs =
  let r, m = crt_sum rs in
  match (Rns.encode rs, Rns.encode_garner rs) with
  | Ok (r1, m1), Ok (r2, m2) ->
    Z.equal r r1 && Z.equal m m1 && Z.equal r r2 && Z.equal m m2
  | _ -> false

let prop_garner_agrees =
  qtest "Garner's algorithm = direct CRT" gen_system agree_with_reference

let prop_encode_matches_crt =
  qtest ~count:500 "encode = encode_garner = direct CRT (past 4 limbs)"
    gen_wide_system (fun rs ->
      let _, m = crt_sum rs in
      QCheck2.assume (Z.bit_length m > 4 * 31);
      agree_with_reference rs)

let test_encode_across_limb_base () =
  (* 2^31 is [Nat.base] itself, the first modulus on the [Z] path *)
  let rs =
    [ residue (1 lsl 31) 12345; residue ((1 lsl 31) - 1) 77;
      residue (Z.to_int_exn (Z.pow (Z.of_int 3) 39)) 1_000_000_007;
      residue (Z.to_int_exn (Z.pow (Z.of_int 5) 26)) 42; residue 7 6; residue 11 0 ]
  in
  Alcotest.(check bool) "past 4 limbs" true
    (Z.bit_length (snd (crt_sum rs)) > 4 * 31);
  Alcotest.(check bool) "encode = garner = CRT" true (agree_with_reference rs);
  let r, _ = Rns.encode_exn rs in
  List.iter
    (fun { Rns.modulus; value } ->
      Alcotest.(check int) (Printf.sprintf "port at %d" modulus) value
        (Rns.port r modulus))
    rs

let prop_extend_incremental =
  qtest "extend = re-encode from scratch" gen_system (fun rs ->
      match rs with
      | [] | [ _ ] -> true
      | first :: rest ->
        let r0, m0 = Rns.encode_exn [ first ] in
        (match Rns.extend ~route_id:r0 ~modulus:m0 rest with
         | Error _ -> false
         | Ok (r, m) ->
           let r', m' = Rns.encode_exn rs in
           Z.equal r r' && Z.equal m m'))

let prop_mixed_radix_reconstructs =
  qtest "mixed-radix digits rebuild R" gen_system (fun rs ->
      match Rns.mixed_radix rs with
      | Error _ -> false
      | Ok digits ->
        let r, _ = Rns.encode_exn rs in
        let value, _ =
          List.fold_left2
            (fun (acc, prod) d { Rns.modulus; _ } ->
              (Z.add acc (Z.mul d prod), Z.mul prod (Z.of_int modulus)))
            (Z.zero, Z.one) digits rs
        in
        Z.equal value r)

let prop_pairwise_coprime_check =
  qtest "pairwise_coprime accepts prime subsets"
    QCheck2.Gen.(1 -- 10)
    (fun n ->
      let ids = Array.to_list (Array.sub primes_pool 0 n) in
      Rns.pairwise_coprime ids = Ok ())

let prop_modulus_product =
  qtest "modulus_product = fold of multiplication" gen_system (fun rs ->
      let ids = List.map (fun r -> r.Rns.modulus) rs in
      Z.equal (Rns.modulus_product ids)
        (List.fold_left (fun acc m -> Z.mul acc (Z.of_int m)) Z.one ids))

let test_single_residue () =
  let r, m = Rns.encode_exn [ residue 7 3 ] in
  Alcotest.check z "R" (Z.of_int 3) r;
  Alcotest.check z "M" (Z.of_int 7) m

let test_modulus_two () =
  let r, _ = Rns.encode_exn [ residue 2 1; residue 3 0 ] in
  Alcotest.(check int) "port at 2" 1 (Rns.port r 2);
  Alcotest.(check int) "port at 3" 0 (Rns.port r 3)

let test_extend_empty () =
  match Rns.extend ~route_id:(Z.of_int 44) ~modulus:(Z.of_int 308) [] with
  | Error Rns.Empty_system -> ()
  | Error e -> Alcotest.failf "wrong error %s" (Rns.error_to_string e)
  | Ok _ -> Alcotest.fail "empty extension should be rejected"

let test_port_invalid_switch () =
  match Rns.port (Z.of_int 5) 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "switch id 0 accepted"

(* Switch ID 1 is degenerate but legal (everything is 0 mod 1);
   non-positive IDs raise. *)
let test_port_switch_one () =
  Alcotest.(check int) "R mod 1" 0 (Rns.port (Z.of_int 660) 1);
  Alcotest.(check int) "0 mod 1" 0 (Rns.port Z.zero 1)

let test_port_negative_switch () =
  match Rns.port (Z.of_int 5) (-3) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative switch id accepted"

let () =
  Alcotest.run "rns"
    [
      ( "paper",
        [
          Alcotest.test_case "primary route ID = 44" `Quick test_paper_primary;
          Alcotest.test_case "protected route ID = 660" `Quick test_paper_protected;
          Alcotest.test_case "decode paper values" `Quick test_paper_decode;
          Alcotest.test_case "extend 44 -> 660" `Quick test_paper_extend;
        ] );
      ( "errors",
        [
          Alcotest.test_case "not coprime" `Quick test_not_coprime;
          Alcotest.test_case "residue out of range" `Quick test_residue_out_of_range;
          Alcotest.test_case "empty system" `Quick test_empty;
          Alcotest.test_case "nonpositive modulus" `Quick test_nonpositive;
          Alcotest.test_case "extend modulus conflict" `Quick test_extend_conflict;
          Alcotest.test_case "coprime predicate" `Quick test_coprime;
          Alcotest.test_case "bit length bound (Eq. 9)" `Quick test_bit_length_bound;
          Alcotest.test_case "single residue" `Quick test_single_residue;
          Alcotest.test_case "modulus two" `Quick test_modulus_two;
          Alcotest.test_case "extend with nothing" `Quick test_extend_empty;
          Alcotest.test_case "port at invalid switch" `Quick test_port_invalid_switch;
          Alcotest.test_case "port at switch 1" `Quick test_port_switch_one;
          Alcotest.test_case "port at negative switch" `Quick test_port_negative_switch;
          Alcotest.test_case "encode across the limb base" `Quick
            test_encode_across_limb_base;
        ] );
      ( "properties",
        [
          prop_roundtrip; prop_range; prop_unique; prop_order_independent;
          prop_garner_agrees; prop_encode_matches_crt; prop_extend_incremental; prop_mixed_radix_reconstructs;
          prop_pairwise_coprime_check; prop_modulus_product;
        ] );
    ]
