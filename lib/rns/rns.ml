module Z = Bignum.Z

type residue = { modulus : int; value : int }

type error =
  | Not_pairwise_coprime of int * int
  | Residue_out_of_range of residue
  | Nonpositive_modulus of int
  | Empty_system
  | Modulus_conflict of int

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

let pp_error ppf = function
  | Not_pairwise_coprime (a, b) ->
    Format.fprintf ppf "switch IDs %d and %d are not coprime (gcd %d)" a b
      (gcd_int a b)
  | Residue_out_of_range { modulus; value } ->
    Format.fprintf ppf "port %d is not representable at switch ID %d (need 0 <= port < id)"
      value modulus
  | Nonpositive_modulus m -> Format.fprintf ppf "switch ID %d is not positive" m
  | Empty_system -> Format.fprintf ppf "empty residue system"
  | Modulus_conflict id ->
    Format.fprintf ppf
      "switch ID %d shares a factor with the existing route modulus" id

let error_to_string e = Format.asprintf "%a" pp_error e

let coprime a b = gcd_int (abs a) (abs b) = 1

let pairwise_coprime ids =
  let rec outer = function
    | [] -> Ok ()
    | id :: rest ->
      if id <= 0 then Error (Nonpositive_modulus id)
      else begin
        let rec inner = function
          | [] -> outer rest
          | other :: more ->
            if not (coprime id other) then Error (Not_pairwise_coprime (id, other))
            else inner more
        in
        inner rest
      end
  in
  outer ids

let modulus_product ids = Z.product (List.map Z.of_int ids)

let validate residues =
  if residues = [] then Error Empty_system
  else begin
    let rec check = function
      | [] -> pairwise_coprime (List.map (fun r -> r.modulus) residues)
      | r :: rest ->
        if r.modulus <= 1 then Error (Nonpositive_modulus r.modulus)
        else if r.value < 0 || r.value >= r.modulus then Error (Residue_out_of_range r)
        else check rest
    in
    check residues
  end

(* Garner's mixed-radix reconstruction (the paper's Eq. 4 value, built
   digit by digit): R = d_1 + d_2*s_1 + d_3*s_1*s_2 + ..., each digit
   d_i = (p_i - acc) * (s_1...s_{i-1})^{-1} mod s_i needing one inverse
   modulo the single small s_i.  Below [Nat.base] the digit is computed in
   machine ints — [Z.rem_int] of the accumulator and of the prefix product,
   then a native extended Euclid — and every product stays below 2^62.
   From [Nat.base] up ([~native:false] forces it everywhere) the digit
   takes the [Z] path, where [s * s] cannot overflow. *)

(* [q^{-1} mod s] for [gcd q s = 1], [0 <= q < s]. *)
let inv_int q s =
  let rec go r0 r1 t0 t1 =
    if r1 = 0 then if r0 = 1 then t0 else assert false (* validated coprime *)
    else
      let k = r0 / r1 in
      go r1 (r0 - (k * r1)) t1 (t0 - (k * t1))
  in
  let t = go s q 0 1 in
  if t < 0 then t + s else t

let digit ~native acc prod { modulus = s; value = p } =
  if native && s < Bignum.Nat.base then
    let a = Z.rem_int acc s in
    (p - a + s) mod s * inv_int (Z.rem_int prod s) s mod s
  else begin
    let zs = Z.of_int s in
    let inv =
      match Z.invmod prod zs with
      | Some inv -> inv
      | None -> assert false (* validated coprime *)
    in
    Z.to_int_exn (Z.erem (Z.mul (Z.sub (Z.of_int p) acc) inv) zs)
  end

(* Fold residues into [(acc, prod)]: the value so far and the modulus it is
   unique below.  Returns the digits in reverse. *)
let garner ~native (acc, prod) residues =
  List.fold_left
    (fun (acc, prod, digits) r ->
      let d = digit ~native acc prod r in
      ( Z.add acc (Z.mul prod (Z.of_int d)),
        Z.mul prod (Z.of_int r.modulus),
        d :: digits ))
    (acc, prod, []) residues

let encode_with ~native residues =
  match validate residues with
  | Error _ as e -> e
  | Ok () ->
    let value, modulus, _ = garner ~native (Z.zero, Z.one) residues in
    Ok (value, modulus)

let encode residues = encode_with ~native:true residues

let encode_exn residues =
  match encode residues with
  | Ok v -> v
  | Error e -> invalid_arg ("Rns.encode: " ^ error_to_string e)

let encode_garner residues = encode_with ~native:false residues

let mixed_radix residues =
  match validate residues with
  | Error _ as e -> e
  | Ok () ->
    let _, _, digits = garner ~native:true (Z.zero, Z.one) residues in
    Ok (List.rev_map Z.of_int digits)

let port route_id switch_id = Z.rem_int route_id switch_id

let decode route_id ids = List.map (port route_id) ids

let extend ~route_id ~modulus extra =
  match validate extra with
  | Error _ as e -> e
  | Ok () ->
    (* Also require the new moduli to be coprime with the existing one. *)
    let conflict =
      List.find_opt
        (fun r -> not (Z.equal (Z.gcd modulus (Z.of_int r.modulus)) Z.one))
        extra
    in
    (match conflict with
     | Some r -> Error (Modulus_conflict r.modulus)
     | None ->
       (* Garner continued from the old system: R' = route_id + modulus * t
          with t = (p - route_id) * modulus^{-1} mod s, per new residue. *)
       let value, modulus, _ = garner ~native:true (route_id, modulus) extra in
       Ok (value, modulus))

let bit_length_bound m =
  if Z.compare m Z.one <= 0 then 0 else Z.bit_length (Z.sub m Z.one)
