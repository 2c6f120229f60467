(** Persistent, certificate-verified tier of the solver cache.

    {!Solver}'s in-memory tier 0 memoizes decisions; this module is the
    optional tier 1, one level down: an append-only log of solved LPs
    keyed by the canonical {!Problem} normal form, with an in-memory
    index built at {!open_} time.  It is what makes restarts warm and lets a fleet
    of workers share verdicts through a file.

    {2 Trust model: verify on load, never on faith}

    A store file is untrusted input — it may be truncated by a crash,
    corrupted on disk, or forged.  Every entry is therefore re-verified
    in exact rational arithmetic before it can ever be served:

    - only [Optimal] outcomes are persisted, because the solution point
      is an independently checkable proof object (for the Farkas LPs it
      {e is} the containment certificate);
    - on load, the recorded point must satisfy every row of the recorded
      problem exactly (with [x ≥ 0], the solver's implicit bound) and
      reproduce the recorded objective value;
    - for pure feasibility problems (empty objective — every problem the
      decision procedures build) that check is complete.  An entry whose
      problem carries a real objective is accepted only if a registered
      per-tag verifier vouches for it, since feasibility alone does not
      prove optimality;
    - per-tag verifiers add semantic checks on top: the gamma backend
      registers one for ["gamma/farkas"] problems that reconstructs the
      full {!Bagcqc_entropy.Certificate} from the point and accepts only
      if [Certificate.check] passes.

    Entries failing any check are dropped and counted ({!rejected}),
    never served; a truncated final line (crash mid-append) is ignored
    ({!truncated}).  A forged-but-self-consistent record can only ever
    be indexed under the problem it actually solves — lookups for other
    problems cannot match it — so serving remains sound even against an
    adversarial store file.

    {2 Concurrency}

    One writer process per store file (appends are not interleaved
    across processes); within a process every operation is mutex-guarded
    and safe from pool workers.  {!attach}/{!detach} are lifecycle
    mutations and must happen between parallel regions, like
    {!Solver.clear}. *)

open Bagcqc_num
open Bagcqc_lp

type t

val open_ : string -> t
(** Open (creating if absent) the store at this path and load its index,
    verifying every entry as described above.
    @raise Sys_error if the path cannot be read or created. *)

val close : t -> unit
(** Flush and close the append channel (idempotent).  A closed store can
    still be read from its in-memory index but rejects {!record}. *)

val path : t -> string
val size : t -> int
(** Number of verified entries currently indexed. *)

val loaded : t -> int
(** Entries accepted (verified) at {!open_} time. *)

val rejected : t -> int
(** Entries dropped at {!open_} time: unparseable lines, malformed
    records, or records whose outcome failed exact re-verification. *)

val truncated : t -> int
(** Trailing bytes without a final newline, ignored as a crash artifact
    (0 or 1 per load). *)

val lookup : t -> Problem.t -> Simplex.outcome option
(** Verified outcome for this problem, as a fresh copy.  Bumps the
    [solver.store.hits]/[solver.store.misses] counters. *)

val record : t -> Problem.t -> Simplex.outcome -> unit
(** Append the entry if it is persistable ([Optimal] outcome, open
    store, not already indexed) and index it; otherwise do nothing.
    Bumps [solver.store.appends] on a real append. *)

(** {2 Compaction}

    An append-only log only grows: bulk sweeps with [--store] leave
    behind rejected lines, crash tails and (across processes) duplicate
    records for the same problem.  Compaction rewrites the file keeping
    exactly one verified entry — the {e last} one, matching the
    last-wins index {!load} builds — per canonical problem key, then
    atomically renames the rewrite over the original, so a reader or a
    crash at any moment sees either the old file or the new one, never a
    half-written hybrid. *)

type compaction = {
  kept : int;        (** verified entries surviving into the new file *)
  duplicates : int;  (** verified entries superseded by a later record
                         for the same canonical problem *)
  dropped : int;     (** unparseable / unverified entries discarded *)
  had_truncated_tail : bool;
      (** the input ended in a crash-truncated line (also discarded) *)
}

val compact : string -> compaction
(** Compact the store file at this path in place (creating an empty,
    valid store if the file is missing).  Must not run concurrently with
    a process appending to the same path — the writer's channel would
    keep appending to the unlinked old file.
    @raise Sys_error if the path cannot be read or the rewrite cannot be
    created/renamed. *)

val register_verifier : tag:string -> (Problem.t -> Rat.t array -> bool) -> unit
(** Install the semantic load-time verifier for problems with this tag
    (see the trust model above).  One verifier per tag.
    @raise Invalid_argument if the tag already has one. *)

(** {2 The attached store}

    {!Solver} consults one process-global store, when attached — the
    two-tier wiring used by [serve] and [check --store]. *)

val attach : t -> unit
(** Make this store the one every {!Solver.solve_using} consults
    (replacing any previous attachment).
    @raise Invalid_argument inside a parallel region. *)

val detach : unit -> unit
(** Stop consulting a store (idempotent; does not close it).
    @raise Invalid_argument inside a parallel region. *)

val attached : unit -> t option

val with_store : string -> (unit -> 'a) -> 'a
(** [with_store path f]: {!open_}, {!attach}, run [f], then detach and
    close — exception-safe.  The warm-start wrapper behind
    [check --store] and [BAGCQC_STORE]. *)
