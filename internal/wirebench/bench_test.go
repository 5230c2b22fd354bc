package wirebench

import "testing"

// Conventional `go test -bench` entry points over the shared bodies;
// cmd/benchguard runs the same functions for the CI regression gate.

func BenchmarkCalibrate(b *testing.B)       { Calibrate(b) }
func BenchmarkWireEncode(b *testing.B)      { Encode(b) }
func BenchmarkWireDecode(b *testing.B)      { Decode(b) }
func BenchmarkServerRoundtrip(b *testing.B) { ServerRoundtrip(b) }
func BenchmarkServerRoundtripPipelined(b *testing.B) {
	ServerRoundtripPipelined(b)
}
func BenchmarkServerRoundtripCoalesced(b *testing.B) {
	ServerRoundtripCoalesced(b)
}
