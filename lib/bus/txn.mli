(** Bus transaction kinds as seen by memory-mapped devices.

    A device handler receives an access's kind, physical address and
    value, plus the issuing process id as *provenance* for the test
    oracle and for the FLASH baseline (whose modified kernel tells the
    engine who is running). A user-level protection mechanism must not
    decide on the pid: real hardware would not see it. *)

type op = Load | Store
