(** Flat byte-addressed memory for the VM and the collector.

    Addresses are plain OCaml ints.  Address 0 is NULL; the first page is
    never handed out, so that small integers are never valid addresses.
    Words are 8 bytes, stored little-endian; loads of narrow widths
    sign-extend (the mini-C subset is all-signed, like the paper's
    workloads).  The arena grows on demand in page-sized steps. *)

let page_size = 4096

let page_bits = 12

type t = {
  mutable data : Bytes.t;
  mutable brk : int;  (** first never-allocated address; grows page-wise *)
}

exception Fault of int  (** out-of-arena access *)

(* One released buffer per domain, all zero, for the next [create] on
   that domain: a VM run would otherwise pay for a fresh arena (and its
   doubling when the stack block arrives) in major-GC work. *)
let spare : Bytes.t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* The largest buffer kept as a spare: what a VM run's arena grows to,
   the initial 64 pages doubled once for its stack block.  A larger
   buffer goes back to the OCaml GC instead of staying pinned on its
   domain. *)
let spare_limit = 128 * page_size

let create () =
  let data =
    match Domain.DLS.get spare with
    | Some data ->
        Domain.DLS.set spare None;
        data
    | None -> Bytes.make (64 * page_size) '\000'
  in
  { data; brk = page_size (* skip the null page *) }

(** Hand the buffer back.  Every byte at or above [brk] is still zero,
    so zeroing [0, brk)] restores a fresh arena, kept for reuse unless
    it has outgrown [spare_limit]; [brk] drops to 0, so any later access
    to [t] faults.  Releasing twice is a no-op. *)
let release t =
  if t.brk > 0 then begin
    if Bytes.length t.data <= spare_limit then begin
      Bytes.fill t.data 0 t.brk '\000';
      Domain.DLS.set spare (Some t.data)
    end;
    t.data <- Bytes.empty;
    t.brk <- 0
  end

(** Highest valid address + 1. *)
let limit t = t.brk

let ensure_capacity t wanted =
  if wanted > Bytes.length t.data then begin
    let cap = ref (Bytes.length t.data) in
    while !cap < wanted do
      cap := !cap * 2
    done;
    let fresh = Bytes.make !cap '\000' in
    Bytes.blit t.data 0 fresh 0 (Bytes.length t.data);
    t.data <- fresh
  end

(** Reserve [n] fresh pages; returns their starting address. *)
let grow_pages t n =
  if t.brk = 0 then raise (Fault 0) (* released *);
  let addr = t.brk in
  t.brk <- t.brk + (n * page_size);
  ensure_capacity t t.brk;
  addr

(* [addr + len <= brk] without the sum, which wraps for an [addr] near
   [max_int]: [brk - len] cannot, since [brk] is an arena size. *)
let in_bounds t addr len = addr >= page_size && addr <= t.brk - len

let[@inline] check t addr len = if not (in_bounds t addr len) then raise (Fault addr)

let load t ~width addr =
  check t addr width;
  match width with
  | 1 -> Bytes.get_int8 t.data addr
  | 2 -> Bytes.get_int16_le t.data addr
  | 4 -> Int32.to_int (Bytes.get_int32_le t.data addr)
  | 8 -> Int64.to_int (Bytes.get_int64_le t.data addr)
  | w -> invalid_arg (Printf.sprintf "Mem.load: width %d" w)

let store t ~width addr v =
  check t addr width;
  match width with
  | 1 -> Bytes.set_int8 t.data addr v
  | 2 -> Bytes.set_int16_le t.data addr v
  | 4 -> Bytes.set_int32_le t.data addr (Int32.of_int v)
  | 8 -> Bytes.set_int64_le t.data addr (Int64.of_int v)
  | w -> invalid_arg (Printf.sprintf "Mem.store: width %d" w)

(* the collector's scan loops load a word per step: no width dispatch *)
let load_word t addr =
  check t addr 8;
  Int64.to_int (Bytes.get_int64_le t.data addr)

let store_word t addr v = store t ~width:8 addr v

(** Fill [len] bytes at [addr] with byte [c] (used for poisoning swept
    objects and for [memset]). *)
let fill t addr len c =
  check t addr len;
  Bytes.fill t.data addr len c

let blit t ~src ~dst len =
  check t src len;
  check t dst len;
  Bytes.blit t.data src t.data dst len

(** Read a NUL-terminated C string. *)
let load_cstring t addr =
  let buf = Buffer.create 16 in
  let rec loop a =
    let c = load t ~width:1 a in
    if c <> 0 then begin
      Buffer.add_char buf (Char.chr (c land 0xff));
      loop (a + 1)
    end
  in
  loop addr;
  Buffer.contents buf

(** Write string [s] plus a terminating NUL at [addr]. *)
let store_cstring t addr s =
  check t addr (String.length s + 1);
  Bytes.blit_string s 0 t.data addr (String.length s);
  Bytes.set t.data (addr + String.length s) '\000'
