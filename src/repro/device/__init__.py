"""Physical-device substrate: qubits, devices, calibration data, noise models."""
