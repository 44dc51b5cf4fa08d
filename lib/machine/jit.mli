(** Closure compilation of decoded programs for the cycle simulator.

    [compile st ci dp] turns thread [ci]'s decoded code into one closure
    per instruction, each fusing the full issue attempt — structural
    slot check, operand/WAW scan (unrolled over captured register
    indices), acquire-fence, SA-port and queue-capacity guards, and the
    writeback — against the shared {!Simstate.t}. The per-cycle loop
    then dispatches by indexing the closure array at the core's [pc];
    no opcode [match], no per-step allocation.

    Return codes: [0] issued (pc already advanced), [1] issued a control
    transfer (ends the issue group), negative [-(bucket + 1)] blocked —
    the closure has charged the stall stat and recorded
    {!Simstate.core.wake} / {!Simstate.core.blocked_stat} for the idle
    fast-forward. Results are byte-identical to the legacy kernel;
    QCheck properties in [test_simkernel] enforce it. *)

val compile : Simstate.t -> int -> Decode.t -> (unit -> int) array
