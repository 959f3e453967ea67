package mediation_test

// The journal's record codec lives in internal/codec, which imports this
// package; importing it here registers it for the whole test binary, so
// the durable peers of these tests journal through the production codec.
import _ "gridvine/internal/codec"
