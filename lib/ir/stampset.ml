(** Sets of small integer ids that empty in O(1): each id has a one-byte
    slot, and an id is in the set when its slot holds the set's current
    stamp.  Emptying takes the next stamp instead of clearing the slots;
    only every 255th emptying clears them.  A set that is emptied and
    refilled many times over a large arena, with a few ids each time,
    costs what it holds, not what the arena does.  Stamps run from 1 to
    255: a slot of 0 (fresh, or cleared) holds no id. *)

type t = { mutable slots : Bytes.t; mutable stamp : int }

let create () = { slots = Bytes.empty; stamp = 1 }

let grow t n =
  if n > Bytes.length t.slots then begin
    let slots = Bytes.make (max n (2 * Bytes.length t.slots)) '\000' in
    Bytes.blit t.slots 0 slots 0 (Bytes.length t.slots);
    t.slots <- slots
  end

let clear t =
  if t.stamp = 255 then begin
    Bytes.fill t.slots 0 (Bytes.length t.slots) '\000';
    t.stamp <- 0
  end;
  t.stamp <- t.stamp + 1

let mem t id =
  id < Bytes.length t.slots && Char.code (Bytes.unsafe_get t.slots id) = t.stamp

let add t id =
  grow t (id + 1);
  Bytes.unsafe_set t.slots id (Char.unsafe_chr t.stamp)
