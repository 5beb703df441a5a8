(** Dense bitsets over small integer ids (blocks, instructions), backed
    by [Bytes].  One allocation per set, no boxing per element — the
    workhorse of the arena analyses (dominance, liveness, reachability,
    duplication-simulation visited sets). *)

type t = { mutable bits : Bytes.t }

let create n = { bits = Bytes.make (max 1 ((n + 7) lsr 3)) '\000' }

let length t = Bytes.length t.bits lsl 3

(* Grow to cover index [i] (amortized doubling). *)
let ensure t i =
  let need = (i lsr 3) + 1 in
  let cur = Bytes.length t.bits in
  if need > cur then begin
    let bits = Bytes.make (max need (2 * cur)) '\000' in
    Bytes.blit t.bits 0 bits 0 cur;
    t.bits <- bits
  end

let mem t i =
  let byte = i lsr 3 in
  byte < Bytes.length t.bits
  && Char.code (Bytes.unsafe_get t.bits byte) land (1 lsl (i land 7)) <> 0

let add t i =
  ensure t i;
  let byte = i lsr 3 in
  Bytes.unsafe_set t.bits byte
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.bits byte) lor (1 lsl (i land 7))))

let remove t i =
  let byte = i lsr 3 in
  if byte < Bytes.length t.bits then
    Bytes.unsafe_set t.bits byte
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get t.bits byte)
         land lnot (1 lsl (i land 7))))

(** Set membership of [i] to [b] — [add]/[remove] in one branch-free call
    site. *)
let set t i b = if b then add t i else remove t i

let clear t = Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'

(** Iterate set members in increasing order. *)
let iter t f =
  for byte = 0 to Bytes.length t.bits - 1 do
    let b = Char.code (Bytes.unsafe_get t.bits byte) in
    if b <> 0 then
      for bit = 0 to 7 do
        if b land (1 lsl bit) <> 0 then f ((byte lsl 3) lor bit)
      done
  done
