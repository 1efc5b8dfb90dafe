let failure = -1
let complete = 0
let in_progress = -2

let is_failure s = s < 0
