package nn

import "hccsim/internal/cuda"

// sysConfig builds the default system under the named protection mode
// ("" is off). It panics on an unknown mode name, mirroring cuda.New's
// fatal-config contract.
func sysConfig(mode string) cuda.Config {
	cfg, err := cuda.NewConfig(mode)
	if err != nil {
		panic("nn: " + err.Error())
	}
	return cfg
}
