package main

import "testing"

func TestParseRates(t *testing.T) {
	lists := map[string]bool{"1.2,1.4": true, "": false, "0": false, "1,-2": false, "NaN": false, "1,+Inf": false, "fast": false}
	for list, ok := range lists {
		if rates, err := parseRates(list); (err == nil) != ok {
			t.Errorf("parseRates(%q) = %v, %v; want ok=%v", list, rates, err, ok)
		}
	}
}
