package core

// RestartRFBSeq restarts the process-wide RFB sequence, so a test outside the
// package that compares whole negotiations names their RFBs (and so orders
// their offers) the same whichever tests ran before it.
func RestartRFBSeq() { rfbSeq.Store(0) }
