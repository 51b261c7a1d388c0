"""CPU power model.

The paper measures the Xeon host at an average of **120.42 W** across
all mesh sizes. We carry that as a measured constant; the Section IV-B
energy comparison prices the host with it.
"""

#: Paper-measured average package power of the Xeon host under the CFD
#: workload (Section IV-B).
XEON_PACKAGE_POWER_W = 120.42
