package flightrec

import (
	"encoding/json"
	"testing"
)

// FuzzManifestDecode feeds arbitrary bytes through DecodeManifest. The
// contract under fuzzing: any input either decodes to a manifest naming one
// workload and a cell that passes Validate, or fails with an error — never
// a panic. Seeded with the current format and the legacy flat one. Run
// offline via `make fuzz`.
func FuzzManifestDecode(f *testing.F) {
	current, err := json.Marshal(loopManifest(7))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(current)
	f.Add([]byte(`{"kernel":"tsf","iq_size":32,"chaos_seed":5,"final_cycle":64805,"halted":true,"config_hash":"5eb0da331e1001f0","program_hash":"e530a20f82b10956"}`))
	f.Add([]byte(`{"kernel":"aps","distribute":true,"iq_size":128,"baseline":true,"strategy":1,"nblt_size":0,"nblt_set":true,"max_cycles":100}`))
	f.Add([]byte(`{"asm_source":"halt\n","interval":65536,"depth":8}`))
	f.Add([]byte(`{"kernel":"adi","iq":0,"reuse":true,"nblt":8}`))
	f.Add([]byte(`{"asm_source":"halt\n","distribute":true}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		man, err := DecodeManifest(data)
		if err != nil {
			return
		}
		if err := man.Validate(); err != nil {
			t.Fatalf("decoded manifest names an invalid cell %+v: %v", man.Spec, err)
		}
		if (man.Kernel == "") == (man.AsmSource == "") {
			t.Fatalf("decoded manifest names %q and %d bytes of assembly", man.Kernel, len(man.AsmSource))
		}
		man.Config()
	})
}
