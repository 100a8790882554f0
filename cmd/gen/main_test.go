package main

import "testing"

func TestRunVariants(t *testing.T) {
	cases := []struct {
		model, scheme  string
		correct, trans bool
		activity       string
		wantErr        bool
	}{
		{"o1", "few-shot", false, false, "", false},
		{"o1", "cot", true, false, "tr", false},
		{"GPT-4o", "few-shot", false, true, "l", false},
		{"NoSuchModel", "few-shot", false, false, "", true},
		{"o1", "zero-shot", false, false, "", true},
	}
	for _, c := range cases {
		err := run(options{model: c.model, scheme: c.scheme, applyCorrections: c.correct,
			transcript: c.trans, activity: c.activity})
		if (err != nil) != c.wantErr {
			t.Errorf("run(%s, %s): err = %v, wantErr = %v", c.model, c.scheme, err, c.wantErr)
		}
	}
}
