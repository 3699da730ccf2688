package rir

import (
	"net/netip"
	"strings"
	"testing"

	"repro/internal/asn"
)

// FuzzRead asserts the delegation parser never panics, parses records
// as oracleParseRecords does, and produces a walkable index for every
// accepted input.
func FuzzRead(f *testing.F) {
	f.Add("arin|US|asn|64496|1|20100101|assigned|o\narin|US|ipv4|192.0.2.0|256|20100101|assigned|o\n")
	f.Add("2|arin|20180201|5|19830101|20180201|+0000\n")
	f.Add("arin|*|ipv4|*|3|summary\n")
	f.Add("x|y|ipv6|2001:db8::|32|d|s|o\nx|y|asn|1|1|d|s|o\n")
	f.Fuzz(func(t *testing.T, in string) {
		sameRecords(t, in)
		d, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		d.Walk(func(p netip.Prefix, a asn.ASN) bool {
			if !p.IsValid() {
				t.Fatalf("invalid prefix indexed: %v", p)
			}
			return true
		})
	})
}
