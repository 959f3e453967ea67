package store_test

// The journal's record codec lives in internal/codec, which imports this
// package; importing it here registers it for the whole test binary.
import _ "gridvine/internal/codec"
